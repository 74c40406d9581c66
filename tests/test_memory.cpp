// Tests for the zero-copy SoA particle engine: bit-identity against an
// AoS reference implementation of the historical filter, resample_to
// edge cases, and the zero-steady-state-allocation contract (asserted by
// the global operator-new spy in tests/support/heap_spy), which also
// bounds the VO regressor's training allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/vec.hpp"
#include "filter/measurement.hpp"
#include "filter/motion.hpp"
#include "filter/particle_filter.hpp"
#include "filter/scenario.hpp"
#include "nn/mlp.hpp"
#include "prob/logspace.hpp"
#include "support/heap_spy.hpp"
#include "vision/depth.hpp"

namespace cimnav {
namespace {

using core::Rng;
using core::ThreadPool;

// Sharp pose-keyed likelihood: strong enough to trigger the tempering
// bisection and frequent resamples; consumes the per-block stream like an
// analog backend would.
class SharpModel final : public filter::MeasurementModel {
 public:
  double log_likelihood(const core::Pose& pose, const vision::DepthScan&,
                        core::Rng& rng) const override {
    const core::Vec3 d = pose.position - core::Vec3{1.5, 1.0, 0.9};
    return -40.0 * d.norm() + 1e-9 * rng.uniform();
  }
  const char* name() const override { return "sharp"; }
};

// ------------------------------------------------------------ AoS seed ref
// Literal reimplementation of the historical AoS particle filter (the
// pre-SoA src/filter/particle_filter.cpp): same draw order, same
// block-keyed likelihood streams, same serial max/sum/cumulative chains.
// The SoA engine promises bit-identity against this at any thread count.
constexpr std::size_t kBlock = 32;

struct AosFilter {
  filter::ParticleFilterConfig cfg;
  std::vector<filter::Particle> ps;
  double last_beta = 1.0;
  double last_ess = 0.0;

  explicit AosFilter(const filter::ParticleFilterConfig& c) : cfg(c) {}

  void init_gaussian(const core::Pose& center, const core::Vec3& sp,
                     double sy, Rng& rng) {
    ps.clear();
    for (int i = 0; i < cfg.particle_count; ++i) {
      core::Pose p{{rng.normal(center.position.x, sp.x),
                    rng.normal(center.position.y, sp.y),
                    rng.normal(center.position.z, sp.z)},
                   rng.normal(center.yaw, sy)};
      ps.push_back({p, 0.0});
    }
  }

  void predict(const filter::Control& c, Rng& rng) {
    for (auto& p : ps)
      p.pose = filter::sample_motion(p.pose, c, cfg.motion_noise, rng);
  }

  double tempered_ess(const std::vector<double>& deltas, double beta) const {
    double max_logw = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ps.size(); ++i)
      max_logw = std::max(max_logw, ps[i].log_weight + beta * deltas[i]);
    if (!std::isfinite(max_logw)) return 0.0;
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const double w = std::exp(ps[i].log_weight + beta * deltas[i] - max_logw);
      sum += w;
      sum_sq += w * w;
    }
    return sum_sq > 0.0 ? sum * sum / sum_sq : 0.0;
  }

  std::vector<double> normalized() const {
    std::vector<double> logw;
    logw.reserve(ps.size());
    for (const auto& p : ps) logw.push_back(p.log_weight);
    return prob::normalize_log_weights(logw);
  }

  void resample(Rng& rng) {
    const auto w = normalized();
    std::vector<filter::Particle> next;
    next.reserve(ps.size());
    const double step = 1.0 / static_cast<double>(ps.size());
    double u = rng.uniform() * step;
    double cumulative = w[0];
    std::size_t idx = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      while (u > cumulative && idx + 1 < ps.size()) {
        ++idx;
        cumulative += w[idx];
      }
      next.push_back({ps[idx].pose, 0.0});
      u += step;
    }
    ps = std::move(next);
  }

  void apply(const std::vector<double>& deltas, Rng& rng) {
    const double n = static_cast<double>(ps.size());
    double beta = 1.0;
    const double floor = cfg.tempering_ess_floor;
    if (floor > 0.0 && tempered_ess(deltas, 1.0) < floor * n) {
      if (tempered_ess(deltas, 0.0) >= floor * n) {
        double lo = 0.0, hi = 1.0;
        for (int it = 0; it < 25; ++it) {
          const double mid = 0.5 * (lo + hi);
          (tempered_ess(deltas, mid) >= floor * n ? lo : hi) = mid;
        }
        beta = lo;
      }
    }
    last_beta = beta;
    for (std::size_t i = 0; i < ps.size(); ++i)
      ps[i].log_weight += beta * deltas[i];
    const auto w = normalized();
    double sum_sq = 0.0;
    for (double x : w) sum_sq += x * x;
    last_ess = sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
    if (last_ess < cfg.resample_threshold * n) {
      resample(rng);
      const auto& rp = cfg.roughening_sigma_pos;
      if (rp.x > 0.0 || rp.y > 0.0 || rp.z > 0.0 ||
          cfg.roughening_sigma_yaw > 0.0) {
        for (auto& p : ps) {
          p.pose.position += {rng.normal(0.0, rp.x), rng.normal(0.0, rp.y),
                              rng.normal(0.0, rp.z)};
          p.pose.yaw = core::wrap_angle(
              p.pose.yaw + rng.normal(0.0, cfg.roughening_sigma_yaw));
        }
      }
    }
  }

  void update(const vision::DepthScan& scan,
              const filter::MeasurementModel& model, Rng& rng) {
    const std::uint64_t root = rng();
    const std::size_t n_blocks = (ps.size() + kBlock - 1) / kBlock;
    std::vector<double> deltas(ps.size());
    for (std::size_t b = 0; b < n_blocks; ++b) {
      Rng block_rng = Rng::stream(root, b);
      const std::size_t i_end = std::min((b + 1) * kBlock, ps.size());
      for (std::size_t i = b * kBlock; i < i_end; ++i)
        deltas[i] = model.log_likelihood(ps[i].pose, scan, block_rng);
    }
    apply(deltas, rng);
  }

  void update_decimated(const vision::DepthScan& scan,
                        const filter::MeasurementModel& model,
                        double fraction, Rng& rng) {
    const std::size_t stride =
        filter::ParticleFilter::decimation_stride(fraction);
    if (stride <= 1) {
      update(scan, model, rng);
      return;
    }
    const std::size_t n_reps = (ps.size() + stride - 1) / stride;
    const std::uint64_t root = rng();
    const std::size_t n_blocks = (n_reps + kBlock - 1) / kBlock;
    std::vector<double> rep_ll(n_reps);
    for (std::size_t b = 0; b < n_blocks; ++b) {
      Rng block_rng = Rng::stream(root, b);
      const std::size_t r_end = std::min((b + 1) * kBlock, n_reps);
      for (std::size_t r = b * kBlock; r < r_end; ++r)
        rep_ll[r] = model.log_likelihood(ps[r * stride].pose, scan, block_rng);
    }
    std::vector<double> deltas(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i)
      deltas[i] = rep_ll[i / stride];
    apply(deltas, rng);
  }
};

void expect_bit_identical(const filter::ParticleFilter& pf,
                          const AosFilter& ref) {
  const auto soa = pf.soa();
  ASSERT_EQ(soa.count, ref.ps.size());
  for (std::size_t i = 0; i < soa.count; ++i) {
    EXPECT_EQ(soa.x[i], ref.ps[i].pose.position.x) << "i=" << i;
    EXPECT_EQ(soa.y[i], ref.ps[i].pose.position.y) << "i=" << i;
    EXPECT_EQ(soa.z[i], ref.ps[i].pose.position.z) << "i=" << i;
    EXPECT_EQ(soa.yaw[i], ref.ps[i].pose.yaw) << "i=" << i;
    EXPECT_EQ(soa.log_weight[i], ref.ps[i].log_weight) << "i=" << i;
  }
}

filter::ParticleFilterConfig identity_config() {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 257;  // deliberately not a multiple of the block
  cfg.resample_threshold = 0.9;
  cfg.tempering_ess_floor = 0.3;
  return cfg;
}

TEST(SoaBitIdentity, UpdateAndResampleMatchAosSeedAtAnyThreadCount) {
  const auto cfg = identity_config();
  SharpModel model;
  vision::DepthScan scan;
  const filter::Control ctl{{0.05, 0.01, 0.0}, 0.02};

  auto run_ref = [&] {
    AosFilter ref(cfg);
    Rng rng(2024);
    ref.init_gaussian({{1.2, 0.9, 0.8}, 0.3}, {0.4, 0.4, 0.2}, 0.2, rng);
    for (int step = 0; step < 6; ++step) {
      ref.predict(ctl, rng);
      if (step % 3 == 2) {
        ref.update_decimated(scan, model, 0.25, rng);
      } else {
        ref.update(scan, model, rng);
      }
    }
    return ref;
  };
  const AosFilter ref = run_ref();

  ThreadPool p1(1), p2(2), p8(8);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p2, &p8}) {
    filter::ParticleFilter pf(cfg);
    Rng rng(2024);
    pf.init_gaussian({{1.2, 0.9, 0.8}, 0.3}, {0.4, 0.4, 0.2}, 0.2, rng);
    for (int step = 0; step < 6; ++step) {
      pf.predict(ctl, rng);
      if (step % 3 == 2) {
        pf.update_decimated(scan, model, 0.25, rng, pool);
      } else {
        pf.update(scan, model, rng, pool);
      }
    }
    expect_bit_identical(pf, ref);
    EXPECT_EQ(pf.last_update_beta(), ref.last_beta);
    EXPECT_EQ(pf.last_update_ess(), ref.last_ess);
  }
  // The sharp likelihood against a wide cloud must actually have fired
  // the tempering bisection at least once, or the test proves less than
  // it claims.
  EXPECT_LT(ref.last_beta, 1.0);
}

// ------------------------------------------------------- resample_to edges

/// Copy of the cloud's poses (the SoA view moves when the cloud resamples).
std::vector<core::Pose> cloud_poses(const filter::ParticleFilter& pf) {
  const filter::SoaView soa = pf.soa();
  std::vector<core::Pose> poses(soa.count);
  for (std::size_t i = 0; i < soa.count; ++i) {
    poses[i].position = {soa.x[i], soa.y[i], soa.z[i]};
    poses[i].yaw = soa.yaw[i];
  }
  return poses;
}

TEST(ResampleTo, EqualWeightsPreserveTheCloud) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 100;
  filter::ParticleFilter pf(cfg);
  Rng rng(7);
  pf.init_gaussian({{1.0, 1.0, 1.0}, 0.0}, {0.3, 0.3, 0.2}, 0.2, rng);
  const std::vector<core::Pose> before = cloud_poses(pf);

  pf.resample_to(pf.size(), rng);
  const auto soa = pf.soa();
  ASSERT_EQ(soa.count, before.size());
  // Systematic resampling of a uniform cloud maps every evenly spaced
  // pointer into its own bin: the identity gather.
  for (std::size_t i = 0; i < soa.count; ++i) {
    EXPECT_EQ(soa.x[i], before[i].position.x);
    EXPECT_EQ(soa.yaw[i], before[i].yaw);
    EXPECT_EQ(soa.log_weight[i], 0.0);
  }
}

TEST(ResampleTo, OneHotWeightsCollapseToTheWinner) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 64;
  filter::ParticleFilter pf(cfg);
  Rng rng(11);
  pf.init_gaussian({{0.5, 0.5, 0.5}, 0.0}, {0.2, 0.2, 0.1}, 0.1, rng);
  const std::size_t winner = 17;
  const core::Pose winner_pose = cloud_poses(pf)[winner];
  {
    const auto soa = pf.mutable_soa();
    for (std::size_t i = 0; i < soa.count; ++i)
      soa.log_weight[i] = i == winner ? 0.0 : -1e9;
  }
  pf.resample_to(48, rng);
  ASSERT_EQ(pf.size(), 48u);
  const auto soa = pf.soa();
  for (std::size_t i = 0; i < soa.count; ++i) {
    EXPECT_EQ(soa.x[i], winner_pose.position.x);
    EXPECT_EQ(soa.y[i], winner_pose.position.y);
    EXPECT_EQ(soa.z[i], winner_pose.position.z);
    EXPECT_EQ(soa.yaw[i], winner_pose.yaw);
  }
}

TEST(ResampleTo, ShrinkToOneKeepsAnAncestor) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 32;
  filter::ParticleFilter pf(cfg);
  Rng rng(13);
  pf.init_gaussian({{0.4, 0.4, 0.4}, 0.0}, {0.2, 0.2, 0.1}, 0.1, rng);
  const std::vector<core::Pose> before = cloud_poses(pf);

  // Shrinking never allocates.
  EXPECT_EQ(heap_spy::allocations_during([&] { pf.resample_to(1, rng); }),
            0u);
  ASSERT_EQ(pf.size(), 1u);
  const auto soa = pf.soa();
  const bool is_ancestor =
      std::any_of(before.begin(), before.end(), [&](const auto& p) {
        return p.position.x == soa.x[0] && p.position.y == soa.y[0] &&
               p.position.z == soa.z[0] && p.yaw == soa.yaw[0];
      });
  EXPECT_TRUE(is_ancestor);
  EXPECT_EQ(soa.log_weight[0], 0.0);
}

TEST(ResampleTo, GrowingPastCapacityAllocatesOnceThenStaysFlat) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 100;
  filter::ParticleFilter pf(cfg);
  Rng rng(17);
  pf.init_gaussian({{0.6, 0.6, 0.6}, 0.0}, {0.3, 0.3, 0.2}, 0.1, rng);
  const std::vector<core::Pose> before = cloud_poses(pf);

  EXPECT_GT(heap_spy::allocations_during([&] { pf.resample_to(500, rng); }),
            0u);
  ASSERT_EQ(pf.size(), 500u);
  // Every grown particle is a gather of some ancestor.
  const auto soa = pf.soa();
  for (std::size_t i = 0; i < soa.count; i += 97) {
    const bool is_ancestor =
        std::any_of(before.begin(), before.end(), [&](const auto& p) {
          return p.position.x == soa.x[i] && p.yaw == soa.yaw[i];
        });
    EXPECT_TRUE(is_ancestor) << "i=" << i;
    EXPECT_EQ(soa.log_weight[i], 0.0);
  }
  // A second resample at the grown size reuses the grown arrays.
  EXPECT_EQ(heap_spy::allocations_during([&] { pf.resample_to(500, rng); }),
            0u);
}

// --------------------------------------------------- zero-allocation loop

TEST(ZeroAllocation, SteadyStateFilterCyclesNeverTouchTheHeap) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 300;
  cfg.resample_threshold = 1.0;  // resample every frame: worst case
  filter::ParticleFilter pf(cfg);
  Rng rng(9);
  pf.init_gaussian({{1.2, 1.0, 0.8}, 0.2}, {0.3, 0.3, 0.2}, 0.1, rng);
  SharpModel model;
  vision::DepthScan scan;
  const filter::Control ctl{{0.02, 0.0, 0.0}, 0.01};

  // Warm-up frame: first-touch paths.
  pf.predict(ctl, rng);
  pf.update(scan, model, rng);

  bool every_update_resampled = true;
  const auto allocs = heap_spy::allocations_during([&] {
    for (int frame = 0; frame < 8; ++frame) {
      pf.predict(ctl, rng);
      pf.update(scan, model, rng);
      // Threshold 1.0: every update resampled, zeroing the log-weights.
      const auto soa = pf.soa();
      for (std::size_t i = 0; i < soa.count; ++i)
        every_update_resampled &= soa.log_weight[i] == 0.0;
      (void)pf.estimate();
      (void)pf.effective_sample_size();
      (void)pf.size();
    }
  });

  EXPECT_EQ(allocs, 0u)
      << "steady-state predict/update/resample cycle touched the heap";
  EXPECT_TRUE(every_update_resampled);
}

TEST(ZeroAllocation, CimBackendFilterCyclesNeverTouchTheHeap) {
  // The deduplicating CIM update keeps its scratch per calling thread and
  // grows it only for a larger update: after one warm-up update of the
  // same cloud size, serial and pooled cycles stay off the heap.
  filter::ScenarioConfig scfg;
  scfg.scene.room_size = {2.6, 2.2, 1.8};
  scfg.scene.furniture_count = 4;
  scfg.scene.clutter_count = 6;
  scfg.map_cloud_points = 1500;
  scfg.mixture_components = 25;
  scfg.trajectory_steps = 6;
  scfg.cim_columns = 120;
  const filter::LocalizationScenario sc(scfg);
  const auto model = sc.make_cim_backend();
  const vision::DepthScan& scan = sc.scans()[2];
  ThreadPool pool2(2);
  for (ThreadPool* pool : {(ThreadPool*)nullptr, &pool2}) {
    filter::ParticleFilterConfig cfg;
    cfg.particle_count = 300;
    cfg.resample_threshold = 1.0;  // resample every frame
    filter::ParticleFilter pf(cfg);
    Rng rng(9);
    pf.init_gaussian(sc.trajectory().poses[3], {0.3, 0.3, 0.2}, 0.1, rng);
    const filter::Control ctl{{0.02, 0.0, 0.0}, 0.01};
    pf.predict(ctl, rng);
    pf.update(scan, *model, rng, pool);  // warm-up

    const auto allocs = heap_spy::allocations_during([&] {
      for (int frame = 0; frame < 6; ++frame) {
        pf.predict(ctl, rng);
        pf.update(scan, *model, rng, pool);
        (void)pf.estimate();
      }
    });
    EXPECT_EQ(allocs, 0u)
        << "CIM update cycle touched the heap (pool "
        << (pool ? pool->thread_count() : 0) << ")";
  }
}

TEST(ZeroAllocation, TrainEpochAllocationsDoNotGrowWithSampleCount) {
  // train_epoch sizes its buffers once per call; no sample, batch or
  // dropout bit allocates, serially or on a pool.
  nn::MlpConfig cfg;
  cfg.layer_sizes = {16, 32, 8, 2};
  cfg.dropout_p = 0.2;
  const auto allocs_per_epoch = [&cfg](int samples, ThreadPool* pool) {
    Rng rng(21);
    nn::Mlp net(cfg, rng);
    std::vector<nn::Vector> X, Y;
    for (int i = 0; i < samples; ++i) {
      nn::Vector x(16);
      for (double& v : x) v = rng.uniform();
      Y.push_back({x[0] - x[1], x[2] + x[3]});
      X.push_back(std::move(x));
    }
    const nn::TrainOptions opt;
    return heap_spy::allocations_during(
        [&] { net.train_epoch(X, Y, opt, rng, pool); });
  };
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    // 48 samples make two batches, 1000 make 32.
    EXPECT_EQ(allocs_per_epoch(1000, p), allocs_per_epoch(48, p))
        << (p != nullptr ? "pooled" : "serial");
  }
}

}  // namespace
}  // namespace cimnav
