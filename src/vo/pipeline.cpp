#include "vo/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace cimnav::vo {
namespace {

/// Network input: frame-t observation (pose context) concatenated with
/// the *centered difference* to frame t+1. The difference carries the
/// motion signal; re-centering it at 0.5 with a gain keeps it inside the
/// unsigned CIM input range while making the feature's deviation
/// dominated by signal rather than DC — without this, hidden-site dropout
/// noise (proportional to the large DC activations) drowns the
/// centimeter-scale deltas and training collapses to the mean.
constexpr double kDiffGain = 5.0;

nn::Vector make_feature(const nn::Vector& a, const nn::Vector& b) {
  nn::Vector f;
  f.reserve(2 * a.size());
  f.insert(f.end(), a.begin(), a.end());
  for (std::size_t i = 0; i < a.size(); ++i)
    f.push_back(core::clamp(0.5 + kDiffGain * (b[i] - a[i]), 0.0, 1.0));
  return f;
}

nn::Vector delta_to_target(const core::Pose& delta) {
  return {delta.position.x, delta.position.y, delta.position.z, delta.yaw};
}

core::Pose target_to_delta(const nn::Vector& t) {
  return core::Pose{{t[0], t[1], t[2]}, t[3]};
}

}  // namespace

VoPipeline::VoPipeline(const VoPipelineConfig& config)
    : config_(config),
      observations_([&] {
        core::Rng rng(config.seed);
        return ObservationModel::random(config.landmark_count,
                                        {-0.5, -0.5, 0.0}, {4.5, 3.5, 2.5},
                                        rng);
      }()) {
  CIMNAV_REQUIRE(config.train_samples >= 1, "need training data");
  core::Rng rng(config_.seed + 1);

  // Network: concat(obs_t, obs_t+1) -> (dx, dy, dz, dyaw).
  nn::MlpConfig net_cfg;
  net_cfg.layer_sizes.push_back(2 * observations_.feature_size());
  for (int h : config_.hidden_sizes) net_cfg.layer_sizes.push_back(h);
  net_cfg.layer_sizes.push_back(4);
  net_cfg.dropout_p = config_.dropout_p;
  net_cfg.dropout_on_input = config_.dropout_on_input;
  net_ = std::make_unique<nn::Mlp>(net_cfg, rng);

  // Training pairs: dense random coverage of the pose-delta envelope.
  {
    const VoTrajectoryConfig box;  // reuse the default workspace bounds
    for (int k = 0; k < config_.train_samples; ++k) {
      const core::Pose pose{{rng.uniform(box.box_min.x, box.box_max.x),
                             rng.uniform(box.box_min.y, box.box_max.y),
                             rng.uniform(box.box_min.z, box.box_max.z)},
                            rng.uniform(-config_.train_yaw_range,
                                        config_.train_yaw_range)};
      const double dm = config_.train_delta_pos_max;
      const core::Pose delta{{rng.uniform(-dm, dm), rng.uniform(-dm, dm),
                              rng.uniform(-dm, dm)},
                             rng.uniform(-config_.train_delta_yaw_max,
                                         config_.train_delta_yaw_max)};
      const core::Pose next = pose.compose(delta);
      train_inputs_.push_back(make_feature(observations_.observe(pose, rng),
                                           observations_.observe(next, rng)));
      train_targets_.push_back(delta_to_target(delta));
    }
  }

  // Held-out test trajectory.
  {
    VoTrajectoryConfig tc;
    tc.steps = config_.test_steps;
    tc.phase = 2.45;
    tc.freq_x = 1.3;
    tc.freq_y = 1.7;
    tc.freq_z = 2.3;
    test_poses_ = make_vo_trajectory(tc);
    for (std::size_t i = 0; i + 1 < test_poses_.size(); ++i) {
      test_inputs_.push_back(
          make_feature(observations_.observe(test_poses_[i], rng),
                       observations_.observe(test_poses_[i + 1], rng)));
      test_targets_.push_back(
          delta_to_target(relative_delta(test_poses_[i], test_poses_[i + 1])));
    }
  }

  // Train (on the pool; weights are bit-identical at any pool size).
  for (int e = 0; e < config_.train.epochs; ++e)
    train_mse_ = net_->train_epoch(train_inputs_, train_targets_,
                                   config_.train, rng, config_.pool);
  test_mse_ = net_->evaluate_mse(test_inputs_, test_targets_);
}

VoRun VoPipeline::evaluate(
    const std::string& label,
    const std::function<nn::Vector(const nn::Vector&, double*)>& predictor)
    const {
  VoRun run;
  run.label = label;
  run.estimated.reserve(test_poses_.size());
  run.estimated.push_back(test_poses_.front());

  std::vector<double> err_x, err_y, err_z, ate2;
  for (std::size_t i = 0; i < test_inputs_.size(); ++i) {
    double variance = 0.0;
    const nn::Vector pred = predictor(test_inputs_[i], &variance);
    const core::Pose delta = target_to_delta(pred);
    run.estimated.push_back(run.estimated.back().compose(delta));

    const nn::Vector& truth = test_targets_[i];
    const double de = std::sqrt(
        (pred[0] - truth[0]) * (pred[0] - truth[0]) +
        (pred[1] - truth[1]) * (pred[1] - truth[1]) +
        (pred[2] - truth[2]) * (pred[2] - truth[2]));
    run.frame_delta_error.push_back(de);
    run.frame_variance.push_back(variance);

    const core::Pose& gt = test_poses_[i + 1];
    const core::Vec3 e = run.estimated.back().position - gt.position;
    err_x.push_back(e.x);
    err_y.push_back(e.y);
    err_z.push_back(e.z);
    ate2.push_back(e.squared_norm());
  }
  run.rmse_axes = {core::rms(err_x), core::rms(err_y), core::rms(err_z)};
  run.ate_rmse = std::sqrt(core::mean(ate2));
  run.mean_delta_error = core::mean(run.frame_delta_error);
  return run;
}

VoRun VoPipeline::run_float() const {
  return evaluate("float-det", [this](const nn::Vector& x, double*) {
    return net_->forward(x);
  });
}

std::unique_ptr<nn::CimMlp> VoPipeline::make_cim_network(
    const cimsram::CimMacroConfig& macro) const {
  core::Rng rng(config_.seed + 99);
  // A handful of calibration inputs suffices for activation ranges.
  std::vector<nn::Vector> calib(
      train_inputs_.begin(),
      train_inputs_.begin() + std::min<std::size_t>(64, train_inputs_.size()));
  return std::make_unique<nn::CimMlp>(*net_, macro, calib, rng);
}

VoRun VoPipeline::run_cim_deterministic(
    const cimsram::CimMacroConfig& macro) const {
  // shared_ptr: std::function requires copyable callables.
  std::shared_ptr<nn::CimMlp> cim = make_cim_network(macro);
  auto analog_rng = std::make_shared<core::Rng>(config_.seed + 123);
  return evaluate(
      "cim-det-" + std::to_string(macro.weight_bits) + "b",
      [cim, analog_rng](const nn::Vector& x, double*) {
        return cim->forward_deterministic(x, *analog_rng);
      });
}

VoRun VoPipeline::run_cim_mc(const cimsram::CimMacroConfig& macro,
                             const bnn::McOptions& options,
                             bnn::MaskSource& masks,
                             bnn::McWorkload* workload_out) const {
  std::shared_ptr<nn::CimMlp> cim = make_cim_network(macro);
  auto analog_rng = std::make_shared<core::Rng>(config_.seed + 321);
  std::string label = "cim-mc-" + std::to_string(macro.weight_bits) + "b";
  if (options.compute_reuse) label += "+reuse";
  if (options.order_samples) label += "+order";
  // The per-frame MC iterations fan out over the pipeline's pool (unless
  // the caller already supplied one); mc_predict_cim keys noise streams on
  // iteration indices, so pooled and serial runs are bit-identical.
  bnn::McOptions opt = options;
  if (opt.pool == nullptr) opt.pool = config_.pool;
  return evaluate(
      label,
      [cim, opt, &masks, analog_rng, workload_out](
          const nn::Vector& x, double* variance) {
        bnn::McWorkload wl;
        const auto pred = bnn::mc_predict_cim(*cim, x, opt, masks,
                                              *analog_rng, &wl);
        if (workload_out != nullptr) *workload_out += wl;
        if (variance != nullptr) *variance = pred.scalar_variance();
        return pred.mean;
      });
}

void VoPipeline::frame_feature_into(const core::Pose& a, const core::Pose& b,
                                    core::Rng& rng, nn::Vector& out) const {
  // Warm per-thread observation scratch: stage A of the fleet engine
  // calls this from pool workers, once per (session, frame) item.
  thread_local nn::Vector oa, ob;
  observations_.observe_into(a, rng, oa);
  observations_.observe_into(b, rng, ob);
  out.clear();
  out.reserve(2 * oa.size());
  out.insert(out.end(), oa.begin(), oa.end());
  for (std::size_t i = 0; i < oa.size(); ++i)
    out.push_back(core::clamp(0.5 + kDiffGain * (ob[i] - oa[i]), 0.0, 1.0));
}

VoRun VoPipeline::run_cim_mc_streamed(const cimsram::CimMacroConfig& macro,
                                      const bnn::McOptions& options,
                                      bnn::MaskSource& masks,
                                      bnn::McWorkload* workload_out) const {
  CIMNAV_REQUIRE(config_.frame_window >= 1,
                 "frame window must hold at least one frame");
  const std::unique_ptr<nn::CimMlp> cim = make_cim_network(macro);
  core::Rng analog_rng(config_.seed + 321);
  std::string label = "cim-mc-" + std::to_string(macro.weight_bits) + "b";
  if (options.compute_reuse) label += "+reuse";
  if (options.order_samples) label += "+order";
  label += "+stream";
  bnn::McOptions opt = options;
  if (opt.pool == nullptr) opt.pool = config_.pool;

  // One mc_predict_cim_window call per frame window, straight on the
  // precomputed test features. The trajectory bookkeeping then replays the
  // predictions through the same evaluate() path as every other
  // condition, so streamed VoRuns are field-for-field comparable (and
  // bit-identical) to run_cim_mc.
  const std::size_t n = test_inputs_.size();
  const auto window = static_cast<std::size_t>(config_.frame_window);
  std::vector<bnn::McPrediction> preds;
  preds.reserve(n);
  std::vector<const nn::Vector*> xs;
  for (std::size_t w0 = 0; w0 < n; w0 += window) {
    xs.clear();
    for (std::size_t f = w0; f < std::min(w0 + window, n); ++f)
      xs.push_back(&test_inputs_[f]);
    std::vector<bnn::McPrediction> got = bnn::mc_predict_cim_window(
        *cim, xs, opt, masks, analog_rng, workload_out);
    std::move(got.begin(), got.end(), std::back_inserter(preds));
  }

  std::size_t cursor = 0;
  return evaluate(label, [&preds, &cursor](const nn::Vector&,
                                           double* variance) {
    const bnn::McPrediction& p = preds[cursor++];
    if (variance != nullptr) *variance = p.scalar_variance();
    return p.mean;
  });
}

}  // namespace cimnav::vo
