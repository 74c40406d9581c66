// Unit tests for MC-Dropout inference, mask sources, sample ordering and
// workload accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "cimsram/cim_macro.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "support/mc_reference.hpp"

namespace cimnav::bnn {
namespace {

using core::Rng;
using nn::Mask;
using nn::Vector;

TEST(Hamming, DistanceBasics) {
  EXPECT_EQ(hamming_distance({1, 0, 1}, {1, 0, 1}), 0u);
  EXPECT_EQ(hamming_distance({1, 0, 1}, {0, 1, 0}), 3u);
  EXPECT_EQ(hamming_distance({1, 1, 0, 0}, {1, 0, 1, 0}), 2u);
  EXPECT_THROW(hamming_distance({1}, {1, 0}), std::invalid_argument);
}

/// One-site mask sets (the locus mask only), as greedy_order_chain reads
/// them.
std::vector<std::vector<Mask>> locus_sets(const std::vector<Mask>& masks) {
  std::vector<std::vector<Mask>> sets;
  for (const auto& m : masks) sets.push_back({m});
  return sets;
}

std::vector<Mask> random_masks(Rng& rng, int count, int width) {
  std::vector<Mask> masks;
  for (int t = 0; t < count; ++t) {
    Mask m(static_cast<std::size_t>(width));
    for (auto& b : m) b = rng.bernoulli(0.5) ? 1 : 0;
    masks.push_back(std::move(m));
  }
  return masks;
}

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

/// The greedy tour over the whole range.
std::vector<std::size_t> tour(const std::vector<Mask>& masks) {
  auto order = identity_order(masks.size());
  std::vector<std::uint8_t> used;
  greedy_order_chain(locus_sets(masks), 0, masks.size(), order, used);
  return order;
}

/// Sum of consecutive locus-mask Hamming distances along order[b, e).
std::uint64_t path_flips(const std::vector<Mask>& masks,
                         const std::vector<std::size_t>& order,
                         std::size_t b, std::size_t e) {
  std::uint64_t total = 0;
  for (std::size_t k = b + 1; k < e; ++k)
    total += hamming_distance(masks[order[k - 1]], masks[order[k]]);
  return total;
}

TEST(Ordering, GreedyNeverWorseThanIdentity) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto masks = random_masks(rng, 16, 64);
    const auto identity = identity_order(masks.size());
    const auto order = tour(masks);
    EXPECT_LE(path_flips(masks, order, 0, masks.size()),
              path_flips(masks, identity, 0, masks.size()));
  }
}

TEST(Ordering, GreedyIsAPermutation) {
  Rng rng(5);
  const auto order = tour(random_masks(rng, 12, 32));
  std::vector<bool> seen(order.size(), false);
  for (auto i : order) {
    ASSERT_LT(i, order.size());
    ASSERT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Ordering, ClusteredMasksOrderWithinClusters) {
  // Two families of masks: all-low and all-high halves. Greedy ordering
  // should traverse one family before jumping to the other exactly once.
  // Within a family every pair is 2 flips apart and every cross-family
  // pair 14, so each step is a tie that goes to the lowest position.
  std::vector<Mask> masks;
  for (int t = 0; t < 4; ++t) {
    Mask m(16, 0);
    for (int i = 0; i < 8; ++i) m[static_cast<std::size_t>(i)] = 1;
    m[static_cast<std::size_t>(t)] = 0;  // slight intra-family variation
    masks.push_back(m);
  }
  for (int t = 0; t < 4; ++t) {
    Mask m(16, 0);
    for (int i = 8; i < 16; ++i) m[static_cast<std::size_t>(i)] = 1;
    m[static_cast<std::size_t>(8 + t)] = 0;
    masks.push_back(m);
  }
  const auto order = tour(masks);
  int family_switches = 0;
  for (std::size_t i = 1; i < order.size(); ++i)
    if ((order[i] < 4) != (order[i - 1] < 4)) ++family_switches;
  EXPECT_EQ(family_switches, 1);
  EXPECT_EQ(order, identity_order(masks.size()));
}

TEST(Ordering, SubRangeTourStaysInItsChain) {
  // Refresh chains of 6 over 20 positions (the last chain is short): each
  // chain's tour permutes only its own positions, starts at the chain
  // head, leaves every other position untouched, and never adds flips.
  Rng rng(9);
  auto masks = random_masks(rng, 20, 24);
  // Ties inside the middle chain: positions 8 and 10 hold copies of 7's
  // mask, so every position is equally far from all three.
  masks[8] = masks[7];
  masks[10] = masks[7];
  const auto sets = locus_sets(masks);
  const std::size_t chain = 6;
  auto order = identity_order(masks.size());
  std::vector<std::uint8_t> used;
  for (std::size_t b = 0; b < masks.size(); b += chain) {
    const std::size_t e = std::min(b + chain, masks.size());
    const auto before = order;
    greedy_order_chain(sets, b, e, order, used);
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (k < b || k >= e) {
        EXPECT_EQ(order[k], before[k]) << "position " << k;
      }
    }
    EXPECT_EQ(order[b], b);
    std::vector<bool> seen(e - b, false);
    for (std::size_t k = b; k < e; ++k) {
      ASSERT_GE(order[k], b);
      ASSERT_LT(order[k], e);
      ASSERT_FALSE(seen[order[k] - b]);
      seen[order[k] - b] = true;
    }
    EXPECT_LE(path_flips(masks, order, b, e),
              path_flips(masks, before, b, e));
  }
  // Middle chain [6, 12): the tour reaches the copies at the lowest one
  // and visits all three back to back (0 flips apart), lowest first.
  const std::vector<std::size_t> mid(order.begin() + 6, order.begin() + 12);
  const auto at = static_cast<std::size_t>(
      std::find(mid.begin(), mid.end(), std::size_t{7}) - mid.begin());
  ASSERT_LE(at + 2, mid.size() - 1);
  EXPECT_EQ(mid[at + 1], 8u);
  EXPECT_EQ(mid[at + 2], 10u);
}

TEST(McPrediction, ScalarVarianceIsMeanOfVariances) {
  McPrediction p;
  p.variance = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(p.scalar_variance(), 2.0);
  EXPECT_DOUBLE_EQ(McPrediction{}.scalar_variance(), 0.0);
}

class McFixture : public ::testing::Test {
 protected:
  McFixture() : rng_(7), net_(make_config(), rng_) {
    // Give the network non-trivial weights.
    std::vector<Vector> X, Y;
    for (int i = 0; i < 400; ++i) {
      Vector x{rng_.uniform(), rng_.uniform(), rng_.uniform()};
      Y.push_back({x[0] + x[1] - x[2]});
      X.push_back(std::move(x));
    }
    nn::TrainOptions opt;
    for (int e = 0; e < 40; ++e) net_.train_epoch(X, Y, opt, rng_);
  }
  static nn::MlpConfig make_config() {
    nn::MlpConfig cfg;
    cfg.layer_sizes = {3, 12, 6, 1};
    cfg.dropout_p = 0.3;
    cfg.dropout_on_input = false;
    return cfg;
  }
  Rng rng_;
  nn::Mlp net_;
};

TEST_F(McFixture, FloatMcMeanNearDeterministic) {
  SoftwareMaskSource masks(Rng{11});
  const Vector x{0.4, 0.6, 0.2};
  const auto pred = oracle::mc_predict_float(net_, x, 500, 0.3, masks);
  EXPECT_EQ(pred.samples, 500);
  EXPECT_NEAR(pred.mean[0], net_.forward(x)[0], 0.1);
  EXPECT_GT(pred.variance[0], 0.0);
}

TEST_F(McFixture, VarianceShrinksConvergesWithIterations) {
  // The MC estimate of the mean stabilizes as T grows.
  std::vector<Vector> calib;
  Rng crng(13);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  mc.analog_noise = false;
  Rng nrng(17);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  const Vector x{0.4, 0.6, 0.2};
  auto spread_at = [&](int T) {
    core::RunningStats s;
    for (int rep = 0; rep < 12; ++rep) {
      SoftwareMaskSource masks(Rng{static_cast<std::uint64_t>(100 + rep)});
      McOptions opt;
      opt.iterations = T;
      opt.dropout_p = 0.3;
      Rng arng(23);
      s.add(mc_predict_cim(cim, x, opt, masks, arng).mean[0]);
    }
    return s.stddev();
  };
  EXPECT_LT(spread_at(120), spread_at(5));
}

TEST_F(McFixture, CimPredictionMatchesFloatMc) {
  std::vector<Vector> calib;
  Rng crng(13);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 12;
  mc.analog_noise = false;
  Rng nrng(17);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  SoftwareMaskSource masks(Rng{19});
  McOptions opt;
  opt.iterations = 300;
  opt.dropout_p = 0.3;
  Rng arng(23);
  const Vector x{0.4, 0.6, 0.2};
  const auto pred = mc_predict_cim(cim, x, opt, masks, arng);
  SoftwareMaskSource masks2(Rng{19});
  const auto ref = oracle::mc_predict_float(net_, x, 300, 0.3, masks2);
  EXPECT_NEAR(pred.mean[0], ref.mean[0], 0.08);
}

TEST_F(McFixture, ReuseAndOrderingPreserveStatistics) {
  std::vector<Vector> calib;
  Rng crng(29);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 14;  // lossless readout: delta == dense exactly
  mc.analog_noise = false;
  Rng nrng(31);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  const Vector x{0.4, 0.6, 0.2};

  auto run = [&](bool reuse, bool order) {
    SoftwareMaskSource masks(Rng{37});
    McOptions opt;
    opt.iterations = 200;
    opt.dropout_p = 0.3;
    opt.compute_reuse = reuse;
    opt.order_samples = order;
    Rng arng(41);
    return mc_predict_cim(cim, x, opt, masks, arng);
  };
  const auto base = run(false, false);
  const auto reuse = run(true, false);
  const auto both = run(true, true);
  // Same mask source seed -> same mask multiset. The delta accumulator
  // rounds through the ADC once per update, so a ~half-LSB random walk
  // over 200 iterations bounds the disagreement; ordering only permutes
  // the sample set.
  EXPECT_NEAR(reuse.mean[0], base.mean[0], 1e-3);
  EXPECT_NEAR(both.mean[0], base.mean[0], 1e-3);
  EXPECT_NEAR(both.variance[0], base.variance[0], 1e-3);
}

TEST_F(McFixture, WorkloadShowsReuseAndOrderingSavings) {
  std::vector<Vector> calib;
  Rng crng(43);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  Rng nrng(47);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  const Vector x{0.4, 0.6, 0.2};

  auto workload_of = [&](bool reuse, bool order) {
    SoftwareMaskSource masks(Rng{53});
    McOptions opt;
    opt.iterations = 40;
    opt.dropout_p = 0.5;
    opt.compute_reuse = reuse;
    opt.order_samples = order;
    Rng arng(59);
    McWorkload wl;
    mc_predict_cim(cim, x, opt, masks, arng, &wl);
    return wl;
  };
  const auto dense = workload_of(false, false);
  const auto reuse = workload_of(true, false);
  const auto both = workload_of(true, true);
  EXPECT_LT(reuse.macro.wordline_pulses, dense.macro.wordline_pulses);
  EXPECT_LE(both.input_mask_flips, reuse.input_mask_flips);
  EXPECT_LE(both.macro.wordline_pulses, reuse.macro.wordline_pulses);
  EXPECT_GT(dense.mask_bits_drawn, 0u);
}

TEST_F(McFixture, WindowAttributionIsExactPerFrame) {
  std::vector<Vector> calib;
  Rng crng(83);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  Rng nrng(89);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  const std::vector<Vector> inputs = {{0.4, 0.6, 0.2},
                                      {0.1, 0.9, 0.3},
                                      {0.7, 0.2, 0.5},
                                      {0.3, 0.3, 0.8}};
  std::vector<const Vector*> xs;
  for (const auto& x : inputs) xs.push_back(&x);

  const auto make_opt = [](core::ThreadPool* pool) {
    McOptions opt;
    opt.iterations = 9;
    opt.dropout_p = 0.4;
    opt.pool = pool;
    return opt;
  };
  const auto expect_stats_eq = [](const cimsram::MacroStats& a,
                                  const cimsram::MacroStats& b) {
    EXPECT_EQ(a.matvec_calls, b.matvec_calls);
    EXPECT_EQ(a.wordline_pulses, b.wordline_pulses);
    EXPECT_EQ(a.wordline_col_drives, b.wordline_col_drives);
    EXPECT_EQ(a.adc_conversions, b.adc_conversions);
    EXPECT_EQ(a.analog_cycles, b.analog_cycles);
    EXPECT_EQ(a.nominal_macs, b.nominal_macs);
  };

  // Serial per-frame reference: the same mask/noise consumption, one
  // measured counter delta per frame.
  std::vector<cimsram::MacroStats> ref;
  {
    SoftwareMaskSource masks(Rng{97});
    const McOptions opt = make_opt(nullptr);
    Rng arng(101);
    for (const auto* x : xs) {
      const auto before = cim.total_stats();
      mc_predict_cim(cim, *x, opt, masks, arng);
      ref.push_back(cim.total_stats() - before);
    }
  }

  core::ThreadPool p4(4);
  for (core::ThreadPool* pool :
       {static_cast<core::ThreadPool*>(nullptr), &p4}) {
    SoftwareMaskSource masks(Rng{97});
    Rng arng(101);
    McWorkload total;
    std::vector<McWorkload> per_frame;
    const auto before = cim.total_stats();
    mc_predict_cim_window(cim, xs, make_opt(pool), masks, arng, &total,
                          &per_frame);
    const auto window_delta = cim.total_stats() - before;

    ASSERT_EQ(per_frame.size(), xs.size());
    cimsram::MacroStats sum;
    for (std::size_t f = 0; f < per_frame.size(); ++f) {
      sum += per_frame[f].macro;
      // Exact attribution: each frame's captured stats equal the frame's
      // serial counter delta, not an even share of the window.
      expect_stats_eq(per_frame[f].macro, ref[f]);
    }
    // Conservation: the per-frame parts sum to the measured window delta.
    expect_stats_eq(sum, window_delta);
    expect_stats_eq(total.macro, window_delta);
  }
}

TEST_F(McFixture, PeriodicRefreshBoundsReuseDrift) {
  // With analog noise, the delta accumulator random-walks; refreshing it
  // every few iterations keeps the MC mean near the dense-path mean.
  std::vector<Vector> calib;
  Rng crng(73);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  mc.noise_coeff = 0.3;  // strong noise makes the drift visible
  Rng nrng(79);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  const Vector x{0.4, 0.6, 0.2};

  auto mean_gap = [&](int refresh) {
    double gap = 0.0;
    const int reps = 6;
    for (int r = 0; r < reps; ++r) {
      SoftwareMaskSource m1(Rng{200 + static_cast<std::uint64_t>(r)});
      SoftwareMaskSource m2(Rng{200 + static_cast<std::uint64_t>(r)});
      McOptions with_reuse;
      with_reuse.iterations = 60;
      with_reuse.dropout_p = 0.3;
      with_reuse.compute_reuse = true;
      with_reuse.reuse_refresh_interval = refresh;
      McOptions dense = with_reuse;
      dense.compute_reuse = false;
      Rng a1(300 + static_cast<std::uint64_t>(r));
      Rng a2(300 + static_cast<std::uint64_t>(r));
      const auto pr = mc_predict_cim(cim, x, with_reuse, m1, a1);
      const auto pd = mc_predict_cim(cim, x, dense, m2, a2);
      gap += std::abs(pr.mean[0] - pd.mean[0]) / reps;
    }
    return gap;
  };
  EXPECT_LT(mean_gap(4), mean_gap(0));
}

TEST(MaskSources, SoftwareMatchesProbability) {
  SoftwareMaskSource src(Rng{61});
  int drops = 0;
  for (int i = 0; i < 20000; ++i) drops += src.draw(0.3) ? 1 : 0;
  EXPECT_NEAR(drops / 20000.0, 0.3, 0.02);
}

TEST(MaskSources, SramSourceCalibratesAndDraws) {
  SramMaskSource src(cimsram::SramRngParams{}, Rng{67}, Rng{71}, 4096);
  EXPECT_GE(src.initial_bias(), 0.0);
  EXPECT_LE(src.initial_bias(), 1.0);
  int drops = 0;
  for (int i = 0; i < 20000; ++i) drops += src.draw(0.5) ? 1 : 0;
  EXPECT_NEAR(drops / 20000.0, 0.5, 0.03);
  // Non-half probabilities via binary expansion.
  drops = 0;
  for (int i = 0; i < 20000; ++i) drops += src.draw(0.125) ? 1 : 0;
  EXPECT_NEAR(drops / 20000.0, 0.125, 0.02);
}

}  // namespace
}  // namespace cimnav::bnn
