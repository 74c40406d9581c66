// Unit tests for the VO pipeline: observations, trajectories, conformal
// intervals, and the end-to-end precision/uncertainty behavior.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "vo/conformal.hpp"
#include "vo/observation.hpp"
#include "vo/pipeline.hpp"
#include "vo/trajectory.hpp"

namespace cimnav::vo {
namespace {

using core::Pose;
using core::Rng;
using core::Vec3;

TEST(Squash, BoundedAndMonotone) {
  double prev = -1.0;
  for (double x = -100; x <= 100; x += 0.5) {
    const double s = squash(x, 2.0);
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
    EXPECT_GT(s, prev);
    prev = s;
  }
  EXPECT_DOUBLE_EQ(squash(0.0, 2.0), 0.5);
}

TEST(Observation, FeatureSizeAndRange) {
  Rng rng(3);
  const auto obs = ObservationModel::random(10, {0, 0, 0}, {4, 3, 2}, rng);
  EXPECT_EQ(obs.feature_size(), 30);
  const auto f = obs.observe(Pose{{2, 1.5, 1}, 0.3}, rng);
  ASSERT_EQ(f.size(), 30u);
  for (double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

/// Landmarks whose noise-free features are not the neutral out-of-range
/// reading (0.5, 0.5, 0.5).
int visible_landmarks(const nn::Vector& f) {
  int n = 0;
  for (std::size_t i = 0; i + 2 < f.size(); i += 3)
    if (f[i] != 0.5 || f[i + 1] != 0.5 || f[i + 2] != 0.5) ++n;
  return n;
}

TEST(Observation, NoiseFreeObservationIsDeterministicAndPoseSensitive) {
  Rng rng(5);
  const auto field = ObservationModel::random(8, {0, 0, 0}, {4, 3, 2}, rng);
  const ObservationModel obs(field.landmarks(), 0.0);
  const Pose a{{1, 1, 1}, 0.0};
  const Pose b{{1.5, 1, 1}, 0.0};
  Rng r1(1), r2(2);
  EXPECT_EQ(obs.observe(a, r1), obs.observe(a, r2));
  EXPECT_NE(obs.observe(a, r1), obs.observe(b, r1));
}

TEST(Observation, OutOfRangeLandmarksReadNeutral) {
  const ObservationModel obs({{10, 0, 0}}, 0.0, 3.0);
  Rng rng(3);
  const auto f = obs.observe(Pose{{0, 0, 0}, 0.0}, rng);
  EXPECT_DOUBLE_EQ(f[0], 0.5);
  EXPECT_DOUBLE_EQ(f[1], 0.5);
  EXPECT_DOUBLE_EQ(f[2], 0.5);
  EXPECT_EQ(visible_landmarks(f), 0);
  EXPECT_EQ(visible_landmarks(obs.observe(Pose{{8, 0, 0}, 0.0}, rng)), 1);
}

TEST(Observation, VisibilityVariesAlongTrajectory) {
  Rng rng(7);
  const auto field = ObservationModel::random(24, {-0.5, -0.5, 0},
                                              {4.5, 3.5, 2.5}, rng);
  const ObservationModel obs(field.landmarks(), 0.0, field.max_range());
  VoTrajectoryConfig tc;
  const auto poses = make_vo_trajectory(tc);
  int min_vis = 1000, max_vis = 0;
  for (const auto& p : poses) {
    const int v = visible_landmarks(obs.observe(p, rng));
    min_vis = std::min(min_vis, v);
    max_vis = std::max(max_vis, v);
  }
  EXPECT_LT(min_vis, max_vis);  // difficulty varies across frames
}

TEST(Trajectory, StaysInsideBox) {
  VoTrajectoryConfig tc;
  const auto poses = make_vo_trajectory(tc);
  EXPECT_EQ(poses.size(), static_cast<std::size_t>(tc.steps) + 1);
  for (const auto& p : poses) {
    EXPECT_GE(p.position.x, tc.box_min.x - 1e-9);
    EXPECT_LE(p.position.x, tc.box_max.x + 1e-9);
    EXPECT_GE(p.position.z, tc.box_min.z - 1e-9);
    EXPECT_LE(p.position.z, tc.box_max.z + 1e-9);
  }
}

TEST(Trajectory, StepsAreSmooth) {
  VoTrajectoryConfig tc;
  tc.steps = 200;
  const auto poses = make_vo_trajectory(tc);
  for (std::size_t i = 1; i < poses.size(); ++i) {
    EXPECT_LT(poses[i].position_error(poses[i - 1]), 0.25);
    EXPECT_LT(poses[i].yaw_error(poses[i - 1]), 0.15);
  }
}

TEST(Trajectory, DeltasReplayToPath) {
  VoTrajectoryConfig tc;
  tc.steps = 50;
  const auto poses = make_vo_trajectory(tc);
  Pose p = poses.front();
  for (std::size_t i = 0; i + 1 < poses.size(); ++i) {
    p = p.compose(relative_delta(poses[i], poses[i + 1]));
    EXPECT_NEAR(p.position_error(poses[i + 1]), 0.0, 1e-9);
  }
}

TEST(Conformal, RadiusIsCalibrationQuantile) {
  std::vector<double> scores;
  for (int i = 1; i <= 100; ++i) scores.push_back(i);
  const SplitConformal c(scores, 0.1);
  // ceil(101 * 0.9) = 91 -> the 91st smallest score.
  EXPECT_NEAR(c.radius(), 91.0, 1.0);
}

TEST(Conformal, CoverageOnExchangeableData) {
  Rng rng(11);
  std::vector<double> calib, test;
  for (int i = 0; i < 500; ++i) calib.push_back(std::abs(rng.normal()));
  for (int i = 0; i < 2000; ++i) test.push_back(std::abs(rng.normal()));
  const SplitConformal c(calib, 0.1);
  const double cov = SplitConformal::empirical_coverage(test, c.radius());
  EXPECT_GE(cov, 0.87);  // finite-sample guarantee ~0.9
  EXPECT_LE(cov, 0.94);
}

TEST(Conformal, SmallerAlphaWidensInterval) {
  Rng rng(13);
  std::vector<double> calib;
  for (int i = 0; i < 300; ++i) calib.push_back(std::abs(rng.normal()));
  const SplitConformal tight(calib, 0.2);
  const SplitConformal wide(calib, 0.05);
  EXPECT_GT(wide.radius(), tight.radius());
}

TEST(PipelineTraining, PooledTrainingBitIdenticalToSerial) {
  // VoPipelineConfig::pool also drives training: the trained network and
  // both MSEs must equal the serial construction's exactly.
  VoPipelineConfig cfg;
  cfg.train_samples = 300;  // ten batches of 32, the last one partial
  cfg.train.epochs = 3;
  cfg.hidden_sizes = {32, 16};
  cfg.test_steps = 20;
  const VoPipeline serial(cfg);
  core::ThreadPool pool(4);
  cfg.pool = &pool;
  const VoPipeline pooled(cfg);
  const nn::Mlp& a = serial.network();
  const nn::Mlp& b = pooled.network();
  ASSERT_EQ(a.layer_count(), b.layer_count());
  for (int l = 0; l < a.layer_count(); ++l) {
    EXPECT_EQ(a.weights(l).data(), b.weights(l).data()) << "layer " << l;
    EXPECT_EQ(a.biases(l), b.biases(l)) << "layer " << l;
  }
  EXPECT_EQ(serial.train_mse(), pooled.train_mse());
  EXPECT_EQ(serial.test_mse(), pooled.test_mse());
}

class PipelineFixture : public ::testing::Test {
 protected:
  static const VoPipeline& pipeline() {
    // Expensive (training); shared across tests in this suite.
    static const VoPipeline* p = [] {
      VoPipelineConfig cfg;
      cfg.train_samples = 2500;
      cfg.train.epochs = 80;
      cfg.test_steps = 120;  // keeps test deltas inside the train envelope
      cfg.hidden_sizes = {128, 64};
      return new VoPipeline(cfg);
    }();
    return *p;
  }
};

TEST_F(PipelineFixture, TrainingLearnsTheTask) {
  // Test MSE well below the target variance (~0.0038).
  EXPECT_LT(pipeline().test_mse(), 0.002);
}

TEST_F(PipelineFixture, FloatRunTracksTrajectory) {
  const VoRun run = pipeline().run_float();
  EXPECT_EQ(run.estimated.size(), pipeline().test_trajectory().size());
  EXPECT_LT(run.mean_delta_error, 0.08);
  EXPECT_GT(run.ate_rmse, 0.0);
}

TEST_F(PipelineFixture, McDropoutBeatsDeterministicOnCim) {
  // The paper's central Fig. 3(c-e) phenomenon: at a fixed low precision,
  // averaging MC-Dropout samples absorbs analog noise that cripples the
  // single-pass deterministic evaluation.
  cimsram::CimMacroConfig mc;
  mc.input_bits = 6;
  mc.weight_bits = 6;
  mc.adc_bits = 6;
  const VoRun det = pipeline().run_cim_deterministic(mc);
  bnn::SoftwareMaskSource masks(Rng{17});
  bnn::McOptions opt;
  opt.iterations = 30;
  opt.dropout_p = pipeline().config().dropout_p;
  const VoRun mcrun = pipeline().run_cim_mc(mc, opt, masks);
  EXPECT_LT(mcrun.mean_delta_error, det.mean_delta_error);
}

TEST_F(PipelineFixture, McVarianceIsReported) {
  cimsram::CimMacroConfig mc;
  mc.input_bits = 6;
  mc.weight_bits = 6;
  bnn::SoftwareMaskSource masks(Rng{19});
  bnn::McOptions opt;
  opt.iterations = 20;
  opt.dropout_p = pipeline().config().dropout_p;
  const VoRun run = pipeline().run_cim_mc(mc, opt, masks);
  int positive = 0;
  for (double v : run.frame_variance)
    if (v > 0.0) ++positive;
  EXPECT_EQ(positive, static_cast<int>(run.frame_variance.size()));
}

TEST_F(PipelineFixture, PooledMcRunBitIdenticalToSerial) {
  // Threading the per-frame MC iterations over a pool (the
  // VoPipelineConfig::pool route) must not change a single prediction:
  // noise streams are keyed on iteration indices, masks are drawn
  // serially per frame.
  cimsram::CimMacroConfig mc;
  mc.input_bits = 4;
  mc.weight_bits = 4;
  auto run_with = [&](core::ThreadPool* pool) {
    bnn::SoftwareMaskSource masks(Rng{29});
    bnn::McOptions opt;
    opt.iterations = 8;
    opt.dropout_p = pipeline().config().dropout_p;
    opt.pool = pool;
    return pipeline().run_cim_mc(mc, opt, masks);
  };
  const VoRun serial = run_with(nullptr);
  core::ThreadPool pool(4);
  const VoRun pooled = run_with(&pool);
  ASSERT_EQ(serial.frame_delta_error.size(), pooled.frame_delta_error.size());
  for (std::size_t i = 0; i < serial.frame_delta_error.size(); ++i) {
    EXPECT_EQ(serial.frame_delta_error[i], pooled.frame_delta_error[i]);
    EXPECT_EQ(serial.frame_variance[i], pooled.frame_variance[i]);
  }
  EXPECT_EQ(serial.ate_rmse, pooled.ate_rmse);
}

TEST_F(PipelineFixture, StreamedRunBitIdenticalToPerFrameRun) {
  // The window path (one cross-frame MC batch per frame window) must
  // reproduce the per-frame path prediction-for-prediction, dense and
  // with compute reuse + sample ordering; only the label gains "+stream".
  cimsram::CimMacroConfig mc;
  mc.input_bits = 4;
  mc.weight_bits = 4;
  for (const bool reuse : {false, true}) {
    const auto run_with = [&](bool streamed, core::ThreadPool* pool,
                              bnn::McWorkload* wl) {
      bnn::SoftwareMaskSource masks(Rng{31});
      bnn::McOptions opt;
      opt.iterations = 6;
      opt.dropout_p = pipeline().config().dropout_p;
      opt.compute_reuse = reuse;
      opt.order_samples = reuse;
      opt.pool = pool;
      return streamed ? pipeline().run_cim_mc_streamed(mc, opt, masks, wl)
                      : pipeline().run_cim_mc(mc, opt, masks, wl);
    };
    core::ThreadPool pool(4);
    bnn::McWorkload per_frame_wl, streamed_wl;
    const VoRun per_frame = run_with(false, &pool, &per_frame_wl);
    const VoRun streamed = run_with(true, &pool, &streamed_wl);
    const VoRun streamed_serial = run_with(true, nullptr, nullptr);
    EXPECT_EQ(streamed.label, per_frame.label + "+stream");
    ASSERT_EQ(streamed.frame_delta_error.size(),
              per_frame.frame_delta_error.size());
    for (std::size_t i = 0; i < per_frame.frame_delta_error.size(); ++i) {
      EXPECT_EQ(streamed.frame_delta_error[i],
                per_frame.frame_delta_error[i])
          << "reuse=" << reuse << " frame " << i;
      EXPECT_EQ(streamed.frame_variance[i], per_frame.frame_variance[i]);
      EXPECT_EQ(streamed_serial.frame_delta_error[i],
                per_frame.frame_delta_error[i]);
      EXPECT_EQ(streamed_serial.frame_variance[i],
                per_frame.frame_variance[i]);
    }
    EXPECT_EQ(streamed.ate_rmse, per_frame.ate_rmse);
    EXPECT_EQ(streamed_wl.macro.wordline_pulses,
              per_frame_wl.macro.wordline_pulses);
    EXPECT_EQ(streamed_wl.macro.adc_conversions,
              per_frame_wl.macro.adc_conversions);
    EXPECT_EQ(streamed_wl.input_mask_flips, per_frame_wl.input_mask_flips);
    EXPECT_EQ(streamed_wl.mask_bits_drawn, per_frame_wl.mask_bits_drawn);
  }
}

TEST_F(PipelineFixture, WorkloadAccumulatesAcrossFrames) {
  cimsram::CimMacroConfig mc;
  bnn::SoftwareMaskSource masks(Rng{23});
  bnn::McOptions opt;
  opt.iterations = 10;
  opt.dropout_p = pipeline().config().dropout_p;
  opt.compute_reuse = true;
  bnn::McWorkload wl;
  pipeline().run_cim_mc(mc, opt, masks, &wl);
  EXPECT_GT(wl.macro.matvec_calls, 0u);
  EXPECT_GT(wl.mask_bits_drawn, 0u);
}

TEST_F(PipelineFixture, ConformalIntervalsCoverVoErrors) {
  // Split the test frames into calibration and evaluation halves.
  const VoRun run = pipeline().run_float();
  const auto& err = run.frame_delta_error;
  const std::size_t half = err.size() / 2;
  std::vector<double> calib(err.begin(),
                            err.begin() + static_cast<std::ptrdiff_t>(half));
  std::vector<double> eval(err.begin() + static_cast<std::ptrdiff_t>(half),
                           err.end());
  const SplitConformal c(calib, 0.2);
  const double cov = SplitConformal::empirical_coverage(eval, c.radius());
  EXPECT_GE(cov, 0.6);  // marginal coverage with small n is noisy
}

}  // namespace
}  // namespace cimnav::vo
