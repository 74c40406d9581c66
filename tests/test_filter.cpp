// Unit tests for the particle filter, motion model, and measurement
// backends.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "filter/measurement.hpp"
#include "filter/motion.hpp"
#include "filter/particle_filter.hpp"
#include "filter/kld.hpp"
#include "filter/scenario.hpp"

namespace cimnav::filter {
namespace {

using core::Pose;
using core::Rng;
using core::Vec3;

TEST(Motion, DeterministicComposition) {
  const Pose p{{1, 2, 0.5}, 3.14159265 / 2};  // facing +y
  const Control c{{1, 0, 0}, 0.0};            // one meter forward
  const Pose q = apply_motion(p, c);
  EXPECT_NEAR(q.position.x, 1.0, 1e-8);
  EXPECT_NEAR(q.position.y, 3.0, 1e-8);
}

TEST(Motion, NoiseStatisticsMatchModel) {
  const Pose p{{0, 0, 0}, 0.0};
  const Control c{{0.1, 0, 0}, 0.0};
  MotionNoise noise;
  noise.sigma_position = {0.05, 0.02, 0.01};
  noise.sigma_yaw = 0.03;
  Rng rng(3);
  core::RunningStats sx, sy, syaw;
  for (int i = 0; i < 20000; ++i) {
    const Pose q = sample_motion(p, c, noise, rng);
    sx.add(q.position.x);
    sy.add(q.position.y);
    syaw.add(q.yaw);
  }
  EXPECT_NEAR(sx.mean(), 0.1, 0.002);
  EXPECT_NEAR(sx.stddev(), 0.05, 0.002);
  EXPECT_NEAR(sy.stddev(), 0.02, 0.001);
  EXPECT_NEAR(syaw.stddev(), 0.03, 0.002);
}

TEST(ParticleFilter, UniformInitCoversBox) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 2000;
  ParticleFilter pf(cfg);
  Rng rng(5);
  pf.init_uniform({0, 0, 0}, {4, 3, 2}, rng);
  core::RunningStats sx;
  const SoaView cloud = pf.soa();
  for (std::size_t i = 0; i < cloud.count; ++i) {
    EXPECT_GE(cloud.x[i], 0.0);
    EXPECT_LE(cloud.x[i], 4.0);
    sx.add(cloud.x[i]);
  }
  EXPECT_NEAR(sx.mean(), 2.0, 0.1);
  EXPECT_NEAR(pf.effective_sample_size(), 2000.0, 1e-9);
}

TEST(ParticleFilter, GaussianInitCentersOnGuess) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 3000;
  ParticleFilter pf(cfg);
  Rng rng(7);
  pf.init_gaussian(Pose{{1, 2, 0.5}, 0.3}, {0.2, 0.2, 0.1}, 0.05, rng);
  const auto est = pf.estimate();
  EXPECT_NEAR(est.pose.position.x, 1.0, 0.02);
  EXPECT_NEAR(est.pose.yaw, 0.3, 0.01);
  EXPECT_NEAR(est.position_stddev.x, 0.2, 0.02);
}

TEST(ParticleFilter, EssDropsWithSkewedWeights) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 100;
  cfg.resample_threshold = 0.0;  // never auto-resample in this test
  ParticleFilter pf(cfg);
  Rng rng(11);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);

  // A measurement model that loves one corner.
  struct CornerModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      return -50.0 * pose.position.squared_norm();
    }
    const char* name() const override { return "corner"; }
  } model;
  vision::DepthScan empty_scan;
  pf.update(empty_scan, model, rng);
  EXPECT_LT(pf.last_update_ess(), 50.0);
}

TEST(ParticleFilter, SystematicResamplingPreservesMean) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 5000;
  cfg.roughening_sigma_pos = {0, 0, 0};
  cfg.roughening_sigma_yaw = 0.0;
  ParticleFilter pf(cfg);
  Rng rng(13);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
  // Weight particles by x: posterior mean of x should be ~2/3.
  struct XModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      return std::log(std::max(pose.position.x, 1e-12));
    }
    const char* name() const override { return "x"; }
  } model;
  vision::DepthScan empty_scan;
  pf.update(empty_scan, model, rng);  // triggers resample (low ESS)
  const auto est = pf.estimate();
  EXPECT_NEAR(est.pose.position.x, 2.0 / 3.0, 0.03);
}

TEST(ParticleFilter, ResampleResetsWeightsAndKeepsCount) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 200;
  ParticleFilter pf(cfg);
  Rng rng(17);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
  pf.resample(rng);
  const SoaView cloud = pf.soa();
  EXPECT_EQ(cloud.count, 200u);
  for (std::size_t i = 0; i < cloud.count; ++i)
    EXPECT_DOUBLE_EQ(cloud.log_weight[i], 0.0);
}

TEST(ParticleFilter, EstimateUsesCircularYawMean) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 2;
  ParticleFilter pf(cfg);
  Rng rng(19);
  pf.init_gaussian(Pose{{0, 0, 0}, 0.0}, {1e-9, 1e-9, 1e-9}, 1e-9, rng);
  // Hand-place two particles straddling the wrap point (edits go through
  // the mutable SoA view).
  const auto soa = pf.mutable_soa();
  soa.yaw[0] = 3.1;
  soa.yaw[1] = -3.1;
  const auto est = pf.estimate();
  // Circular mean of 3.1 and -3.1 is pi (not 0).
  EXPECT_GT(std::abs(est.pose.yaw), 3.0);
}

TEST(ParticleFilter, RequiresInitBeforeUse) {
  ParticleFilter pf(ParticleFilterConfig{});
  Rng rng(23);
  EXPECT_THROW(pf.predict(Control{}, rng), std::invalid_argument);
  EXPECT_THROW(pf.estimate(), std::invalid_argument);
}

class ScenarioTest : public ::testing::Test {
 protected:
  static ScenarioConfig small_config() {
    ScenarioConfig cfg;
    cfg.scene.room_size = {2.6, 2.2, 1.8};
    cfg.scene.furniture_count = 4;
    cfg.scene.clutter_count = 6;
    cfg.map_cloud_points = 1500;
    cfg.mixture_components = 25;
    cfg.trajectory_steps = 6;
    cfg.scan_pixels = 40;
    cfg.filter.particle_count = 120;
    cfg.cim_columns = 120;
    return cfg;
  }
};

TEST_F(ScenarioTest, TrajectoryStaysInsideInterior) {
  const LocalizationScenario sc(small_config());
  const auto lo = sc.scene().interior_min(), hi = sc.scene().interior_max();
  for (const auto& p : sc.trajectory().poses) {
    EXPECT_GE(p.position.x, lo.x);
    EXPECT_LE(p.position.x, hi.x);
    EXPECT_GE(p.position.z, lo.z);
    EXPECT_LE(p.position.z, hi.z);
  }
}

TEST_F(ScenarioTest, TrajectoryAvoidsBoxes) {
  const LocalizationScenario sc(small_config());
  for (const auto& p : sc.trajectory().poses) {
    for (const auto& b : sc.scene().boxes()) {
      const Vec3 d = p.position - b.center;
      const bool inside = std::abs(d.x) < b.half_extents.x &&
                          std::abs(d.y) < b.half_extents.y &&
                          std::abs(d.z) < b.half_extents.z;
      EXPECT_FALSE(inside);
    }
  }
}

TEST_F(ScenarioTest, ControlsReplayToGroundTruth) {
  const LocalizationScenario sc(small_config());
  Pose p = sc.trajectory().poses.front();
  for (std::size_t i = 0; i < sc.trajectory().controls.size(); ++i) {
    p = apply_motion(p, sc.trajectory().controls[i]);
    EXPECT_NEAR(p.position_error(sc.trajectory().poses[i + 1]), 0.0, 1e-9);
  }
}

TEST_F(ScenarioTest, TruePoseOutscoresPerturbedPose) {
  const LocalizationScenario sc(small_config());
  const auto model = sc.make_gmm_backend();
  Rng rng(29);
  const Pose truth = sc.trajectory().poses[3];
  const auto& scan = sc.scans()[2];
  const double at_truth = model->log_likelihood(truth, scan, rng);
  int wins = 0;
  for (int k = 0; k < 10; ++k) {
    const Pose off{truth.position + Vec3{rng.normal(0, 0.4),
                                         rng.normal(0, 0.4),
                                         rng.normal(0, 0.2)},
                   truth.yaw + rng.normal(0, 0.3)};
    if (at_truth > model->log_likelihood(off, scan, rng)) ++wins;
  }
  EXPECT_GE(wins, 8);
}

TEST_F(ScenarioTest, AllBackendsConvergeFromTrackingInit) {
  const LocalizationScenario sc(small_config());
  const auto gmm = sc.make_gmm_backend();
  const auto hmgm = sc.make_hmgm_backend();
  const auto run_g = sc.run(*gmm, 404);
  const auto run_h = sc.run(*hmgm, 404);
  // Both digital backends end below the ~0.5 m initial displacement.
  EXPECT_LT(run_g.final_error_m, 0.45);
  EXPECT_LT(run_h.final_error_m, 0.55);
  EXPECT_EQ(static_cast<int>(run_g.steps.size()), 6);
}

TEST_F(ScenarioTest, CimBackendTracksTruth) {
  const LocalizationScenario sc(small_config());
  const auto cim = sc.make_cim_backend();
  const auto run = sc.run(*cim, 404);
  EXPECT_LT(run.final_error_m, 0.8);
}

TEST_F(ScenarioTest, CimGainCalibrationRecoversScale) {
  const LocalizationScenario sc(small_config());
  circuit::LikelihoodArrayConfig acfg;
  acfg.total_columns = 120;
  Rng rng(31);
  const map::WorldToVoltage mapping(
      sc.scene().interior_min() - Vec3{0.3, 0.3, 0.3},
      sc.scene().interior_max() + Vec3{0.3, 0.3, 0.3}, 0.1, 0.9);
  const CimHmgmLikelihood cim(sc.maps().hmgm, mapping, acfg, rng, 1.0);
  // The physical kernel compresses log-likelihood; calibration must find
  // a substantial >1 gain.
  EXPECT_GT(cim.calibrated_gain(), 1.2);
  EXPECT_LT(cim.calibrated_gain(), 20.0);
}

TEST_F(ScenarioTest, CimEvaluationCounterCountsReadsPerScan) {
  // The CIM backend's ledger: 400 calibration probes at construction, then
  // one log-ADC read per scored scan pixel, counted once per scan.
  const LocalizationScenario sc(small_config());
  const auto cim = sc.make_cim_backend();
  EXPECT_EQ(cim->evaluation_count(), 400u);
  const auto& scan = sc.scans()[2];
  ASSERT_FALSE(scan.pixels.empty());
  Rng rng(33);
  cim->log_likelihood(sc.trajectory().poses[3], scan, rng);
  EXPECT_EQ(cim->evaluation_count(), 400u + scan.pixels.size());
  cim->log_likelihood(sc.trajectory().poses[2], scan, rng);
  EXPECT_EQ(cim->evaluation_count(), 400u + 2 * scan.pixels.size());
}

TEST_F(ScenarioTest, CimEvaluationCounterExactUnderPooledUpdate) {
  // Particle-block workers score concurrently against one shared array
  // and bump one shared counter: the count is exact and the weights are
  // bit-identical at every pool size.
  const LocalizationScenario sc(small_config());
  const auto& scan = sc.scans()[2];
  core::ThreadPool p2(2), p8(8);
  std::vector<std::vector<double>> weights;
  for (core::ThreadPool* pool : {(core::ThreadPool*)nullptr, &p2, &p8}) {
    const auto cim = sc.make_cim_backend();
    ParticleFilter pf(sc.config().filter);
    Rng rng(35);
    pf.init_gaussian(sc.trajectory().poses[3], {0.2, 0.2, 0.1}, 0.1, rng);
    const std::uint64_t before = cim->evaluation_count();
    pf.update(scan, *cim, rng, pool);
    EXPECT_EQ(cim->evaluation_count() - before,
              pf.size() * scan.pixels.size());
    const SoaView cloud = pf.soa();
    weights.emplace_back(cloud.log_weight, cloud.log_weight + cloud.count);
  }
  EXPECT_EQ(weights[0], weights[1]);
  EXPECT_EQ(weights[0], weights[2]);
}

TEST_F(ScenarioTest, CimBlockScoringMatchesPerPoseOracle) {
  // Independent reference for the deduplicated CIM path: the block-keyed
  // loop over log_likelihood (blocks of 32 poses, one stream per block),
  // written out here. update and update_decimated must reproduce it bit
  // for bit, with the same evaluation-count delta.
  static_assert(MeasurementModel::kPoseBlock == 32);
  ScenarioConfig cfg = small_config();
  cfg.scan_pixels = 80;
  const LocalizationScenario sc(cfg);
  const auto model = sc.make_cim_backend();
  const auto& cim = dynamic_cast<const CimHmgmLikelihood&>(*model);
  // Key packing contract: code(x) low, then code(y), then code(z).
  const auto& arr = cim.array();
  const auto bits = static_cast<unsigned>(arr.dac().bits());
  for (const Vec3 v : {Vec3{0.2, 0.5, 0.8}, Vec3{0.9, 0.1, 0.4}}) {
    EXPECT_EQ(arr.key(v), arr.dac().encode(v.x) |
                              arr.dac().encode(v.y) << bits |
                              arr.dac().encode(v.z) << 2 * bits);
  }
  const vision::DepthScan& full = sc.scans()[2];
  ASSERT_EQ(full.pixels.size(), 80u);
  core::ThreadPool p1(1), p2(2), p8(8);
  for (core::ThreadPool* pool :
       {(core::ThreadPool*)nullptr, &p1, &p2, &p8}) {
    for (int count : {1, 33, 900}) {
      for (std::size_t stride : {1u, 3u}) {
        for (std::size_t pixels : {0u, 1u, 80u}) {
          vision::DepthScan scan = full;
          scan.pixels.resize(pixels);
          ParticleFilterConfig fcfg = cfg.filter;
          fcfg.particle_count = count;
          fcfg.resample_threshold = 0.0;  // weights = log-likelihoods
          fcfg.tempering_ess_floor = 0.0;
          ParticleFilter pf(fcfg);
          Rng rng(41);
          pf.init_gaussian(sc.trajectory().poses[3], {0.3, 0.3, 0.15}, 0.3,
                           rng);
          // A NaN coordinate encodes to DAC code 0 by contract.
          pf.mutable_soa().x[count == 1 ? 0 : 30] =
              std::numeric_limits<double>::quiet_NaN();
          Rng ref_rng = rng;
          const std::uint64_t noise_root = ref_rng();
          const std::uint64_t before = model->evaluation_count();
          if (stride == 1) {
            pf.update(scan, *model, rng, pool);
          } else {
            pf.update_decimated(scan, *model, 1.0 / 3.0, rng, pool);
          }
          const std::uint64_t pf_evals = model->evaluation_count() - before;

          const SoaView soa = pf.soa();
          const std::size_t n_reps = (soa.count + stride - 1) / stride;
          std::vector<double> ref(n_reps);
          Rng block_rng(0);
          for (std::size_t r = 0; r < n_reps; ++r) {
            if (r % 32 == 0) block_rng = Rng::stream(noise_root, r / 32);
            Pose p;
            p.position = {soa.x[r * stride], soa.y[r * stride],
                          soa.z[r * stride]};
            p.yaw = soa.yaw[r * stride];
            ref[r] = model->log_likelihood(p, scan, block_rng);
          }
          const std::uint64_t ref_evals =
              model->evaluation_count() - before - pf_evals;
          EXPECT_EQ(pf_evals, ref_evals);
          EXPECT_EQ(pf_evals, n_reps * pixels);
          for (std::size_t i = 0; i < soa.count; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(soa.log_weight[i]),
                      std::bit_cast<std::uint64_t>(ref[i / stride]))
                << "pool " << (pool ? pool->thread_count() : 0) << " count "
                << count << " stride " << stride << " pixels " << pixels
                << " particle " << i;
          }
        }
      }
    }
  }
}

TEST_F(ScenarioTest, GlobalLocalizationConverges) {
  // Uniform init over the whole room: with more particles and the sharp
  // GMM backend the cloud should collapse onto the trajectory.
  ScenarioConfig cfg = small_config();
  cfg.filter.particle_count = 500;
  cfg.trajectory_steps = 8;
  const LocalizationScenario sc(cfg);
  const auto gmm = sc.make_gmm_backend();
  const auto run = sc.run(*gmm, 777, /*global_init=*/true);
  // Final error well under the room diagonal (~3.9 m) and under the
  // average error of a random guess (~1.5 m).
  EXPECT_LT(run.final_error_m, 0.8);
  EXPECT_LT(run.steps.back().position_error_m,
            run.steps.front().position_error_m);
}

TEST(Kld, RequiredParticlesGrowWithBins) {
  const KldConfig cfg;
  int prev = 0;
  for (int bins : {2, 5, 20, 100, 500}) {
    const int n = kld_required_particles(bins, cfg);
    EXPECT_GE(n, prev);
    prev = n;
  }
  EXPECT_EQ(kld_required_particles(1, cfg), cfg.min_particles);
  EXPECT_LE(kld_required_particles(100000, cfg), cfg.max_particles);
}

TEST(Kld, BinCountReflectsSpread) {
  KldConfig cfg;
  ParticleFilterConfig pcfg;
  pcfg.particle_count = 500;
  ParticleFilter wide(pcfg), tight(pcfg);
  Rng rng(61);
  wide.init_uniform({0, 0, 0}, {4, 3, 2}, rng);
  tight.init_gaussian(Pose{{2, 1.5, 1}, 0.0}, {0.05, 0.05, 0.05}, 0.02, rng);
  EXPECT_GT(count_occupied_bins(wide.soa(), cfg),
            4 * count_occupied_bins(tight.soa(), cfg));
}

TEST(Kld, AdaptiveResampleShrinksConvergedCloud) {
  // A converged belief needs far fewer particles than a global one —
  // the workload elasticity KLD-sampling provides.
  KldConfig cfg;
  ParticleFilterConfig pcfg;
  pcfg.particle_count = 2000;
  ParticleFilter pf(pcfg);
  Rng rng(67);
  pf.init_gaussian(Pose{{2, 1.5, 1}, 0.0}, {0.08, 0.08, 0.05}, 0.05, rng);
  const int n = kld_resample(pf, cfg, rng);
  EXPECT_EQ(static_cast<int>(pf.size()), n);
  EXPECT_LT(n, 600);
  EXPECT_GE(n, cfg.min_particles);

  ParticleFilter global_pf(pcfg);
  global_pf.init_uniform({0, 0, 0}, {4, 3, 2}, rng);
  const int n_global = kld_resample(global_pf, cfg, rng);
  EXPECT_GT(n_global, 3 * n);
}

TEST(Kld, ResampleToChangesCount) {
  ParticleFilterConfig pcfg;
  pcfg.particle_count = 100;
  ParticleFilter pf(pcfg);
  Rng rng(71);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
  pf.resample_to(37, rng);
  EXPECT_EQ(pf.soa().count, 37u);
  pf.resample_to(250, rng);
  EXPECT_EQ(pf.soa().count, 250u);
}

TEST(NoiseInflation, SigmaGrowsMonotonicallyAndRespectsCap) {
  MotionNoise base;
  base.sigma_position = {0.03, 0.03, 0.02};
  base.sigma_yaw = 0.01;
  NoiseInflation inflation;
  inflation.gain = 1.0;
  inflation.sigma_pos_max = 0.2;
  inflation.sigma_yaw_max = 0.15;

  // Zero reported uncertainty leaves the base noise untouched.
  const MotionNoise same = inflate_motion_noise(base, {0, 0, 0}, 0.0,
                                                inflation);
  EXPECT_DOUBLE_EQ(same.sigma_position.x, base.sigma_position.x);
  EXPECT_DOUBLE_EQ(same.sigma_yaw, base.sigma_yaw);

  double prev_x = 0.0, prev_yaw = 0.0;
  for (double s : {0.0, 0.01, 0.03, 0.1, 0.3, 1.0, 5.0}) {
    const MotionNoise n =
        inflate_motion_noise(base, {s, s, s}, s, inflation);
    EXPECT_GE(n.sigma_position.x, prev_x);         // monotone
    EXPECT_GE(n.sigma_yaw, prev_yaw);
    EXPECT_GE(n.sigma_position.x, base.sigma_position.x);  // floored
    EXPECT_LE(n.sigma_position.x, inflation.sigma_pos_max);  // capped
    EXPECT_LE(n.sigma_yaw, inflation.sigma_yaw_max);
    if (s > 0.0 && prev_x < inflation.sigma_pos_max)
      EXPECT_GT(n.sigma_position.x, prev_x);  // strict below the cap
    prev_x = n.sigma_position.x;
    prev_yaw = n.sigma_yaw;
  }

  // Quadrature: sqrt(base^2 + (gain*s)^2) when uncapped.
  NoiseInflation uncapped;
  uncapped.gain = 2.0;
  uncapped.sigma_pos_max = 0.0;
  const MotionNoise q = inflate_motion_noise(base, {0.1, 0, 0}, 0.0,
                                             uncapped);
  EXPECT_NEAR(q.sigma_position.x,
              std::sqrt(0.03 * 0.03 + 0.2 * 0.2), 1e-12);

  // The cap bounds the inflation, never the configured base noise: a
  // base sigma above the cap passes through untouched at zero reported
  // uncertainty.
  MotionNoise wide_base;
  wide_base.sigma_yaw = 0.8;  // > sigma_yaw_max = 0.15
  const MotionNoise floored =
      inflate_motion_noise(wide_base, {0, 0, 0}, 0.0, inflation);
  EXPECT_DOUBLE_EQ(floored.sigma_yaw, 0.8);
}

TEST(NoiseInflation, PredictedParticleSpreadWidensWithVoVariance) {
  // The closed-loop contract end to end: a larger reported VO variance
  // must widen the predicted cloud, monotonically. Fresh filter + fresh
  // rng per level replay identical standard-normal draws, so the spread
  // comparison is deterministic and strict.
  MotionNoise base;
  NoiseInflation inflation;  // uncapped enough for the levels below
  inflation.sigma_pos_max = 10.0;
  inflation.sigma_yaw_max = 10.0;
  double prev_spread = 0.0;
  for (double vo_sigma : {0.0, 0.02, 0.05, 0.1, 0.25}) {
    ParticleFilterConfig cfg;
    cfg.particle_count = 1500;
    ParticleFilter pf(cfg);
    Rng rng(91);
    pf.init_gaussian(Pose{{1, 1, 1}, 0.0}, {1e-6, 1e-6, 1e-6}, 1e-6, rng);
    const MotionNoise n = inflate_motion_noise(
        base, {vo_sigma, vo_sigma, vo_sigma}, vo_sigma, inflation);
    pf.predict(Control{{0.1, 0, 0}, 0.0}, n, rng);
    const auto est = pf.estimate();
    const double spread = (est.position_stddev.x + est.position_stddev.y +
                           est.position_stddev.z) /
                          3.0;
    EXPECT_GT(spread, prev_spread);
    prev_spread = spread;
  }
}

TEST(ParticleFilter, DecimatedUpdateFractionOneMatchesFull) {
  // fraction 1 must be *exactly* the full update (same rng consumption,
  // same weights), so policies can sweep the fraction continuously.
  ParticleFilterConfig cfg;
  cfg.particle_count = 100;
  struct CornerModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      return -5.0 * pose.position.squared_norm();
    }
    const char* name() const override { return "corner"; }
  } model;
  vision::DepthScan empty_scan;

  ParticleFilter full(cfg), decimated(cfg);
  Rng rng_a(21), rng_b(21);
  full.init_uniform({0, 0, 0}, {1, 1, 1}, rng_a);
  decimated.init_uniform({0, 0, 0}, {1, 1, 1}, rng_b);
  full.update(empty_scan, model, rng_a);
  decimated.update_decimated(empty_scan, model, 1.0, rng_b);
  const SoaView a = full.soa(), b = decimated.soa();
  ASSERT_EQ(a.count, b.count);
  for (std::size_t i = 0; i < a.count; ++i) {
    EXPECT_EQ(a.log_weight[i], b.log_weight[i]);
    EXPECT_EQ(a.x[i], b.x[i]);
  }
}

TEST(ParticleFilter, DecimationStrideRoundsTheFraction) {
  EXPECT_EQ(ParticleFilter::decimation_stride(1.0), 1u);
  EXPECT_EQ(ParticleFilter::decimation_stride(0.7), 1u);   // rounds to full
  EXPECT_EQ(ParticleFilter::decimation_stride(0.5), 2u);
  EXPECT_EQ(ParticleFilter::decimation_stride(0.25), 4u);
  EXPECT_EQ(ParticleFilter::decimation_stride(0.1), 10u);
  EXPECT_THROW(ParticleFilter::decimation_stride(0.0), std::invalid_argument);
  EXPECT_THROW(ParticleFilter::decimation_stride(1.5), std::invalid_argument);
}

TEST(ParticleFilter, DecimatedUpdateSharesBlockLikelihoodsAndSavesEvals) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 101;       // non-multiple of the stride on purpose
  cfg.resample_threshold = 0.0;   // keep the weights observable
  struct CountingModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      ++evals;
      return -0.5 * pose.position.squared_norm();
    }
    const char* name() const override { return "counting"; }
    mutable int evals = 0;
  } model;
  vision::DepthScan empty_scan;

  ParticleFilter pf(cfg);
  Rng rng(23);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
  pf.update_decimated(empty_scan, model, 0.25, rng);
  // ceil(101 / 4) representatives evaluated, everyone else shares.
  EXPECT_EQ(model.evals, 26);
  const SoaView cloud = pf.soa();
  for (std::size_t i = 0; i < cloud.count; ++i)
    EXPECT_EQ(cloud.log_weight[i], cloud.log_weight[(i / 4) * 4]);
}

TEST(ParticleFilter, DecimatedUpdateBitIdenticalAcrossPools) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 500;
  struct NoisyModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng& rng) const override {
      return -2.0 * pose.position.squared_norm() + 0.01 * rng.normal();
    }
    const char* name() const override { return "noisy"; }
  } model;
  vision::DepthScan empty_scan;

  std::vector<std::vector<double>> weights;
  core::ThreadPool p2(2), p8(8);
  for (core::ThreadPool* pool : {(core::ThreadPool*)nullptr, &p2, &p8}) {
    ParticleFilter pf(cfg);
    Rng rng(29);
    pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
    pf.update_decimated(empty_scan, model, 0.25, rng, pool);
    const SoaView cloud = pf.soa();
    weights.emplace_back(cloud.log_weight, cloud.log_weight + cloud.count);
  }
  EXPECT_EQ(weights[0], weights[1]);
  EXPECT_EQ(weights[0], weights[2]);
}

TEST(ParticleFilter, TemperingLiftsEssAboveFloor) {
  // A likelihood sharp enough to collapse a wide cloud onto a handful of
  // particles — the degenerate-first-update transient. With a tempering
  // floor the anneal keeps ESS/N at or above it; without, beta stays 1.
  struct SharpModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      return -200.0 * pose.position.squared_norm();
    }
    const char* name() const override { return "sharp"; }
  } model;
  vision::DepthScan empty_scan;

  ParticleFilterConfig plain;
  plain.particle_count = 400;
  ParticleFilter pf_plain(plain);
  Rng rng_a(31);
  pf_plain.init_uniform({0, 0, 0}, {1, 1, 1}, rng_a);
  pf_plain.update(empty_scan, model, rng_a);
  EXPECT_DOUBLE_EQ(pf_plain.last_update_beta(), 1.0);
  EXPECT_LT(pf_plain.last_update_ess(), 0.1 * 400);

  ParticleFilterConfig tempered = plain;
  tempered.tempering_ess_floor = 0.25;
  ParticleFilter pf_temp(tempered);
  Rng rng_b(31);
  pf_temp.init_uniform({0, 0, 0}, {1, 1, 1}, rng_b);
  pf_temp.update(empty_scan, model, rng_b);
  EXPECT_LT(pf_temp.last_update_beta(), 1.0);
  EXPECT_GT(pf_temp.last_update_beta(), 0.0);
  EXPECT_GE(pf_temp.last_update_ess(), 0.25 * 400 - 1e-6);

  // A higher floor anneals harder (smaller beta, larger ESS).
  ParticleFilterConfig higher = plain;
  higher.tempering_ess_floor = 0.5;
  ParticleFilter pf_high(higher);
  Rng rng_c(31);
  pf_high.init_uniform({0, 0, 0}, {1, 1, 1}, rng_c);
  pf_high.update(empty_scan, model, rng_c);
  EXPECT_LT(pf_high.last_update_beta(), pf_temp.last_update_beta());
  EXPECT_GE(pf_high.last_update_ess(), 0.5 * 400 - 1e-6);

  ParticleFilterConfig bad;
  bad.tempering_ess_floor = 1.0;
  EXPECT_THROW(ParticleFilter{bad}, std::invalid_argument);
}

TEST(Backends, EvaluationCountersAndEnergy) {
  // The ledger contract: every scored scan point counts one elementary
  // evaluation, priced by a positive per-evaluation energy.
  const prob::Gmm g({{1.0, prob::DiagGaussian({0, 0, 0}, {1, 1, 1})}});
  const GmmLikelihood m(g, 1.0);
  EXPECT_EQ(m.evaluation_count(), 0u);
  EXPECT_GT(m.evaluation_energy_j(), 0.0);
  vision::DepthScan scan;
  scan.intrinsics = vision::CameraIntrinsics::kinect_like(16, 12);
  scan.pixels.push_back({8, 6, 1.0});
  scan.pixels.push_back({4, 3, 1.5});
  Rng rng(37);
  const Pose pose{{0, 0, 0}, 0.0};
  m.log_likelihood(pose, scan, rng);
  EXPECT_EQ(m.evaluation_count(), 2u);
  m.log_likelihood(pose, scan, rng);
  EXPECT_EQ(m.evaluation_count(), 4u);
}

TEST(ScenarioRegistry, BuiltInsRegisteredInOrder) {
  const auto names = scenario_names();
  ASSERT_GE(names.size(), 5u);
  EXPECT_EQ(names[0], "indoor_loop");
  EXPECT_EQ(names[1], "corridor_dropout");
  EXPECT_EQ(names[2], "loop_closure_square");
  EXPECT_EQ(names[3], "warehouse_symmetry");
  EXPECT_EQ(names[4], "kidnapped_drone");
  for (const auto& n : names)
    EXPECT_FALSE(scenario_description(n).empty());
}

TEST(ScenarioRegistry, UnknownNameThrows) {
  EXPECT_THROW(make_scenario_config("no_such_scenario"),
               std::invalid_argument);
  EXPECT_THROW(scenario_description("no_such_scenario"),
               std::invalid_argument);
}

TEST(ScenarioRegistry, ConfigsPairLayoutsAndTrajectories) {
  const auto corridor = make_scenario_config("corridor_dropout");
  EXPECT_EQ(corridor.scene.layout, map::SceneLayout::kCorridor);
  EXPECT_EQ(corridor.trajectory, TrajectoryKind::kCorridorSweep);
  EXPECT_TRUE(corridor.defer_scans);
  const auto warehouse = make_scenario_config("warehouse_symmetry");
  EXPECT_EQ(warehouse.scene.layout, map::SceneLayout::kWarehouse);
  const auto square = make_scenario_config("loop_closure_square");
  EXPECT_EQ(square.trajectory, TrajectoryKind::kRoundedSquare);
  const auto kidnapped = make_scenario_config("kidnapped_drone");
  EXPECT_EQ(kidnapped.scene.layout, map::SceneLayout::kWarehouse);
  EXPECT_TRUE(kidnapped.global_init);
  EXPECT_GT(kidnapped.filter.tempering_ess_floor, 0.0);
  EXPECT_GT(kidnapped.filter.particle_count,
            make_scenario_config("warehouse_symmetry").filter.particle_count);
}

TEST(ScenarioTrajectories, RoundedSquareClosesItsLoop) {
  Rng scene_rng(11);
  const auto scene =
      map::Scene::generate(map::SceneConfig{{3.0, 2.6, 1.8}}, scene_rng);
  Rng rng(13);
  const Trajectory traj = make_square_trajectory(scene, 48, rng);
  ASSERT_EQ(traj.poses.size(), 49u);
  const Pose& first = traj.poses.front();
  const Pose& last = traj.poses.back();
  EXPECT_NEAR(first.position_error(last), 0.0, 1e-9);
  EXPECT_NEAR(first.yaw_error(last), 0.0, 1e-9);
}

TEST(ScenarioTrajectories, RegistryFlightsStayInEnvelopeAndAvoidBoxes) {
  // Every named scenario's flight must keep per-step deltas inside the
  // VO training envelope (else closed-loop frames go out of
  // distribution) and fly clear of scene geometry.
  for (const auto& name :
       {"indoor_loop", "corridor_dropout", "loop_closure_square",
        "warehouse_symmetry", "kidnapped_drone"}) {
    const ScenarioConfig cfg = make_scenario_config(name);
    // Scene + trajectory exactly as the LocalizationScenario constructor
    // builds them (same seeds), skipping the map fitting the geometry
    // checks do not need.
    Rng scene_rng(cfg.seed);
    const auto scene = map::Scene::generate(cfg.scene, scene_rng);
    Rng traj_rng(cfg.seed + 2);
    const Trajectory traj = make_trajectory(cfg.trajectory, scene,
                                            cfg.trajectory_steps, traj_rng);
    for (const auto& c : traj.controls) {
      EXPECT_LE(c.delta_position.norm(), 0.15) << name;
      EXPECT_LE(std::abs(c.delta_yaw), 0.13) << name;
    }
    for (const auto& p : traj.poses) {
      EXPECT_LE(std::abs(p.yaw), 1.0) << name;  // VO training yaw range
      for (const auto& b : scene.boxes()) {
        const Vec3 d = p.position - b.center;
        const bool inside = std::abs(d.x) < b.half_extents.x &&
                            std::abs(d.y) < b.half_extents.y &&
                            std::abs(d.z) < b.half_extents.z;
        EXPECT_FALSE(inside) << name;
      }
    }
  }
}

TEST(Backends, BetaScalesLogLikelihood) {
  const prob::Gmm g({{1.0, prob::DiagGaussian({0, 0, 0}, {1, 1, 1})}});
  const GmmLikelihood m1(g, 1.0);
  const GmmLikelihood m2(g, 2.0);
  vision::DepthScan scan;
  scan.intrinsics = vision::CameraIntrinsics::kinect_like(16, 12);
  scan.pixels.push_back({8, 6, 1.0});
  Rng rng(37);
  const Pose pose{{0, 0, 0}, 0.0};
  EXPECT_NEAR(m2.log_likelihood(pose, scan, rng),
              2.0 * m1.log_likelihood(pose, scan, rng), 1e-9);
}

}  // namespace
}  // namespace cimnav::filter
