// End-to-end Bayesian visual-odometry pipeline (paper Sec. III-D).
//
// Builds the synthetic VO task (landmark field + trajectories), trains the
// dropout MLP to regress body-frame pose deltas from consecutive frame
// observations, and evaluates every inference condition the paper's
// Fig. 3(c-f) compares:
//
//   float-det    — full-precision deterministic forward;
//   cim-det-Nb   — CIM-executed deterministic (analog noise + ADC);
//   cim-mc-Nb    — CIM-executed MC-Dropout (mean prediction + variance).
//
// Each evaluation integrates predicted deltas into a trajectory from the
// known start pose and records per-frame delta errors and (for MC runs)
// predictive variances, feeding the error-vs-uncertainty analysis.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bnn/mc_dropout.hpp"
#include "cimsram/cim_macro.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/vec.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"
#include "vo/observation.hpp"
#include "vo/trajectory.hpp"

namespace cimnav::vo {

struct VoPipelineConfig {
  int landmark_count = 24;
  std::vector<int> hidden_sizes{128, 64};
  double dropout_p = 0.2;  ///< hidden-site MC-Dropout probability
  /// Dropout sites: hidden layers only. Raw features are 0.5-centered, so
  /// zeroing them injects large off-manifold noise; hidden ReLU
  /// activations are the natural dropout locus (and the exact
  /// compute-reuse locus — see CimMlp::forward_reuse_window).
  bool dropout_on_input = false;
  /// Training pairs are sampled densely over the pose-delta envelope
  /// (uniform pose, random small delta) so the regressor generalizes to
  /// any smooth trajectory through the workspace.
  int train_samples = 4000;
  double train_delta_pos_max = 0.15;  ///< |delta| envelope per axis [m]
  double train_delta_yaw_max = 0.12;  ///< [rad]
  /// |yaw| envelope of training poses [rad]. The historical default (1.0)
  /// matches the Lissajous test trajectories; closed-loop scenario flights
  /// whose heading sweeps the full circle (tangent ellipse, rotating
  /// square) must train with the full range (pi), or over half of each
  /// flight is out of the training distribution.
  double train_yaw_range = 1.0;
  int test_steps = 120;
  double observation_noise = 0.005;
  nn::TrainOptions train;
  std::uint64_t seed = 7;
  /// Worker pool for training and for the CIM MC-Dropout evaluations
  /// (nullptr = serial), mirroring filter::ScenarioConfig::pool. Training
  /// fans each minibatch's samples and weight rows over it
  /// (nn::Mlp::train_epoch); each frame's T MC iterations run through
  /// CimMlp::forward_window and fan out over it. Trained weights and
  /// every result are bit-identical at any thread count (masks are drawn
  /// serially, reductions run in sample order, noise streams are keyed on
  /// iteration indices).
  core::ThreadPool* pool = nullptr;
  /// Frame window of run_cim_mc_streamed (>= 1): the MC iterations of up
  /// to this many frames are batched through one macro dispatch per layer
  /// (one bnn::mc_predict_cim_window call per window). 1 degenerates to
  /// frame-at-a-time. Any value yields results bit-identical to
  /// run_cim_mc.
  int frame_window = 4;

  VoPipelineConfig() {
    train.epochs = 120;
    train.learning_rate = 1e-3;
  }
};

/// One evaluated inference condition.
struct VoRun {
  std::string label;                     ///< e.g. "cim-mc-6b+stream"
  std::vector<core::Pose> estimated;     ///< integrated trajectory
  std::vector<double> frame_delta_error; ///< per-frame delta L2 error [m]
  std::vector<double> frame_variance;    ///< MC predictive variance (or 0)
  core::Vec3 rmse_axes;                  ///< trajectory RMSE per axis
  double ate_rmse = 0.0;                 ///< absolute trajectory error RMSE
  double mean_delta_error = 0.0;
};

/// Owns the synthetic VO task end to end: builds the landmark field,
/// trains the dropout regressor, and evaluates every inference condition
/// on the shared held-out trajectory. Construction is deterministic given
/// config().seed; all run_* evaluators are const and reusable.
class VoPipeline {
 public:
  /// Builds landmarks, synthesizes train/test data, trains the network.
  explicit VoPipeline(const VoPipelineConfig& config);

  const VoPipelineConfig& config() const { return config_; }
  /// The trained float reference network (weights shared by every CIM
  /// snapshot).
  const nn::Mlp& network() const { return *net_; }
  /// Ground-truth poses of the held-out evaluation trajectory.
  const std::vector<core::Pose>& test_trajectory() const {
    return test_poses_;
  }
  /// Final-epoch training MSE of the pose-delta regressor.
  double train_mse() const { return train_mse_; }
  /// Held-out MSE on the test trajectory's frame pairs.
  double test_mse() const { return test_mse_; }

  /// Full-precision deterministic reference.
  VoRun run_float() const;

  /// CIM-executed deterministic single pass.
  VoRun run_cim_deterministic(const cimsram::CimMacroConfig& macro) const;

  /// CIM-executed MC-Dropout; `workload_out` (optional) accumulates macro
  /// activity across the whole trajectory. Frames evaluate one at a time
  /// (iterations fan over config().pool); see run_cim_mc_streamed for the
  /// cross-frame window path.
  VoRun run_cim_mc(const cimsram::CimMacroConfig& macro,
                   const bnn::McOptions& options, bnn::MaskSource& masks,
                   bnn::McWorkload* workload_out = nullptr) const;

  /// CIM-executed MC-Dropout, one window of config().frame_window frames
  /// at a time: each window's MC iterations are batched across its frames
  /// through one macro dispatch per layer (bnn::mc_predict_cim_window).
  /// Guarantee: with any options (dense, compute_reuse, order_samples),
  /// every per-frame prediction — and hence the whole VoRun — is
  /// bit-identical to run_cim_mc at any thread count and window size;
  /// only the label gains a "+stream" suffix.
  VoRun run_cim_mc_streamed(const cimsram::CimMacroConfig& macro,
                            const bnn::McOptions& options,
                            bnn::MaskSource& masks,
                            bnn::McWorkload* workload_out = nullptr) const;

  /// Builds a CIM snapshot of the trained network (shared by benches).
  std::unique_ptr<nn::CimMlp> make_cim_network(
      const cimsram::CimMacroConfig& macro) const;

  /// Test-set feature/target pairs (calibration, conformal extension).
  const std::vector<nn::Vector>& test_inputs() const { return test_inputs_; }
  const std::vector<nn::Vector>& test_targets() const {
    return test_targets_;
  }

  /// The synthetic landmark field the regressor was trained against.
  const ObservationModel& observations() const { return observations_; }

  /// Builds the regressor input for one frame transition a -> b into
  /// `out` (capacity kept across calls; observation scratch is
  /// per-thread): observation of `a` concatenated with the centered
  /// difference to the observation of `b` (the exact feature layout used
  /// in training). `rng` drives the observation noise; key it on the
  /// frame index when generating frames in stage A (the window schedule
  /// requires inputs to be pure functions of the frame index; see
  /// OdometrySession::make_input).
  void frame_feature_into(const core::Pose& a, const core::Pose& b,
                          core::Rng& rng, nn::Vector& out) const;

 private:
  VoRun evaluate(const std::string& label,
                 const std::function<nn::Vector(const nn::Vector&, double*)>&
                     predictor) const;

  VoPipelineConfig config_;
  ObservationModel observations_;
  std::unique_ptr<nn::Mlp> net_;
  std::vector<core::Pose> test_poses_;
  std::vector<nn::Vector> train_inputs_, train_targets_;
  std::vector<nn::Vector> test_inputs_, test_targets_;
  double train_mse_ = 0.0;
  double test_mse_ = 0.0;
};

}  // namespace cimnav::vo
