// Unit tests for the analog circuit models: MOSFET law, inverter bump,
// programming, converters, noise, Gaussian fitting, likelihood array.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "circuit/array.hpp"
#include "circuit/converters.hpp"
#include "circuit/gaussian_fit.hpp"
#include "circuit/inverter.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/noise.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"

namespace cimnav::circuit {
namespace {

TEST(Mosfet, CurrentIsMonotoneInGateDrive) {
  Mosfet m{MosfetParams{}};
  double prev = 0.0;
  for (double v = 0.0; v <= 1.2; v += 0.01) {
    const double i = m.drain_current(v);
    ASSERT_GE(i, prev);
    prev = i;
  }
}

TEST(Mosfet, SubthresholdSlopeIsExponential) {
  Mosfet m{MosfetParams{}};
  // Two points well below threshold: ratio should follow exp(dv / nVt).
  const double vt = m.effective_vt();
  const double i1 = m.drain_current(vt - 0.30);
  const double i2 = m.drain_current(vt - 0.25);
  const MosfetParams p;
  const double expected =
      std::exp(0.05 / (p.n_slope * p.thermal_vt_v));
  EXPECT_NEAR(i2 / i1, expected, expected * 0.05);
}

TEST(Mosfet, SquareLawAboveThreshold) {
  Mosfet m{MosfetParams{}};
  const double vt = m.effective_vt();
  // Far above threshold I ~ (Vgs - VT)^2: doubling overdrive ~4x current.
  const double i1 = m.drain_current(vt + 0.4);
  const double i2 = m.drain_current(vt + 0.8);
  EXPECT_NEAR(i2 / i1, 4.0, 0.5);
}

TEST(Mosfet, FloatingGateShiftsThreshold) {
  Mosfet m{MosfetParams{}};
  const double i_before = m.drain_current(0.5);
  m.set_delta_vt(0.1);
  EXPECT_LT(m.drain_current(0.5), i_before);
  m.set_delta_vt(-0.1);
  EXPECT_GT(m.drain_current(0.5), i_before);
}

TEST(Mosfet, SizeFactorScalesCurrent) {
  Mosfet m{MosfetParams{}};
  const double i1 = m.drain_current(0.6);
  m.set_size_factor(2.5);
  EXPECT_NEAR(m.drain_current(0.6) / i1, 2.5, 1e-9);
  EXPECT_THROW(m.set_size_factor(0.0), std::invalid_argument);
}

TEST(InverterBranch, BumpPeaksMidRailForSymmetricDevices) {
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  EXPECT_NEAR(b.center(), 0.5, 1e-3);
  EXPECT_GT(b.peak_current(), 0.0);
  // Rails conduct (almost) nothing.
  EXPECT_LT(b.current(0.0), 1e-3 * b.peak_current());
  EXPECT_LT(b.current(1.0), 1e-3 * b.peak_current());
}

TEST(InverterBranch, BumpIsUnimodal) {
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  const double c = b.center();
  double prev = 0.0;
  for (double v = 0.0; v <= c; v += 0.02) {
    const double i = b.current(v);
    ASSERT_GE(i, prev - 1e-15);
    prev = i;
  }
  prev = b.current(c);
  for (double v = c; v <= 1.0; v += 0.02) {
    const double i = b.current(v);
    ASSERT_LE(i, prev + 1e-15);
    prev = i;
  }
}

TEST(InverterBranch, SwitchingCurrentIsGaussianLike) {
  // The paper's Fig. 2(b) claim, quantified: R^2 of a Gaussian fit.
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  std::vector<double> xs, ys;
  for (double v = 0.0; v <= 1.0; v += 0.005) {
    xs.push_back(v);
    ys.push_back(b.current(v));
  }
  const GaussianFit f = fit_gaussian(xs, ys);
  EXPECT_GT(f.r2, 0.99);
  EXPECT_NEAR(f.center, b.center(), 0.01);
  EXPECT_NEAR(f.sigma, b.sigma(), 0.01);
}

TEST(InverterBranch, ProgrammingMovesCenter) {
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  b.program(0.15, -0.15);  // raise VT_n, lower VT_p -> center right
  EXPECT_GT(b.center(), 0.55);
  b.program(-0.15, 0.15);
  EXPECT_LT(b.center(), 0.45);
}

TEST(InverterBranch, BumpWidensWithThermalVoltage) {
  // The bump's width follows the subthreshold slope n*kT/q; symmetric
  // devices keep the center mid-rail at any thermal voltage.
  const SupplyParams supply;
  MosfetParams warm;
  warm.thermal_vt_v *= 1.2;
  const InverterBranch nominal{MosfetParams{}, MosfetParams{}, supply};
  const InverterBranch wide{warm, warm, supply};
  EXPECT_GT(wide.sigma(), nominal.sigma());
  EXPECT_NEAR(wide.center(), 0.5, 5e-3);
}

TEST(InverterBranch, CommonModeShiftNarrowsBump) {
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  const double s0 = b.sigma();
  b.program(0.2, 0.2);
  EXPECT_LT(b.sigma(), s0);
  b.program(-0.2, -0.2);
  EXPECT_GT(b.sigma(), s0);
}

struct ProgramTarget {
  double center;
  double sigma;
};

class ProgrammerTest : public ::testing::TestWithParam<ProgramTarget> {};

TEST_P(ProgrammerTest, AchievesRequestedBump) {
  const InverterProgrammer prog{MosfetParams{}, MosfetParams{},
                                SupplyParams{}};
  const auto [c, s] = GetParam();
  const auto p = prog.solve(c, s);
  EXPECT_NEAR(p.achieved_center_v, c, 0.01);
  EXPECT_NEAR(p.achieved_sigma_v, s, 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    GridOfTargets, ProgrammerTest,
    ::testing::Values(ProgramTarget{0.3, 0.05}, ProgramTarget{0.3, 0.10},
                      ProgramTarget{0.5, 0.05}, ProgramTarget{0.5, 0.12},
                      ProgramTarget{0.7, 0.05}, ProgramTarget{0.7, 0.10},
                      ProgramTarget{0.4, 0.08}, ProgramTarget{0.6, 0.15}));

TEST(Programmer, ClampsOutOfRangeSigma) {
  const InverterProgrammer prog{MosfetParams{}, MosfetParams{},
                                SupplyParams{}};
  const auto [lo, hi] = prog.sigma_range();
  EXPECT_GT(lo, 0.0);
  EXPECT_GT(hi, lo);
  // Requesting narrower than achievable clamps to the floor.
  const auto p = prog.solve(0.5, lo / 4.0);
  EXPECT_NEAR(p.achieved_sigma_v, lo, 0.01);
}

TEST(SixTransistorInverter, HarmonicCompositionBelowMin) {
  SixTransistorInverter inv{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  const std::array<double, 3> v{0.5, 0.5, 0.5};
  const double i = inv.current(v);
  for (int d = 0; d < 3; ++d)
    EXPECT_LT(i, inv.branch(d).current(v[static_cast<std::size_t>(d)]));
  // Equal branches: harmonic composition = branch current / 3.
  EXPECT_NEAR(i, inv.branch(0).current(0.5) / 3.0,
              0.02 * inv.branch(0).current(0.5));
}

TEST(SixTransistorInverter, AnyOffBranchKillsCurrent) {
  SixTransistorInverter inv{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  EXPECT_LT(inv.current({0.5, 0.5, 0.0}), 1e-2 * inv.peak_current());
}

TEST(SixTransistorInverter, PeakAtBranchCenters) {
  SixTransistorInverter inv{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  const double peak = inv.peak_current();
  for (double dv : {-0.2, -0.1, 0.1, 0.2}) {
    EXPECT_LT(inv.current({0.5 + dv, 0.5, 0.5}), peak);
  }
}

TEST(Dac, EncodeDecodeRoundTrip) {
  const Dac dac(4, 0.1, 0.9);
  EXPECT_EQ(dac.levels(), 16u);
  for (std::uint32_t code = 0; code < dac.levels(); ++code)
    EXPECT_EQ(dac.encode(dac.decode(code)), code);
}

TEST(Dac, QuantizationErrorBounded) {
  const Dac dac(6, 0.0, 1.0);
  core::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_LE(std::abs(dac.quantize(v) - v), dac.step() / 2 + 1e-12);
  }
}

TEST(Dac, ClampsOutOfRange) {
  const Dac dac(4, 0.1, 0.9);
  EXPECT_EQ(dac.encode(-1.0), 0u);
  EXPECT_EQ(dac.encode(2.0), dac.levels() - 1);
}

TEST(Converters, NonFiniteInputsEncodeToDefinedCodes) {
  // Boundary contract: any double, NaN included, yields an in-range code.
  // NaN is code 0 by definition, not by lround's unspecified NaN result.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Dac dac(6, 0.05, 0.95);
  const LogAdc log_adc(4, 1e-9, 1e-3);
  EXPECT_EQ(dac.encode(nan), 0u);
  EXPECT_EQ(dac.encode(-inf), 0u);
  EXPECT_EQ(dac.encode(inf), dac.levels() - 1);
  EXPECT_EQ(dac.encode(1e300), dac.levels() - 1);
  EXPECT_EQ(dac.encode(-1e300), 0u);
  EXPECT_EQ(log_adc.encode(nan), 0u);
  EXPECT_EQ(log_adc.encode(-inf), 0u);
  EXPECT_EQ(log_adc.encode(inf), log_adc.levels() - 1);
  EXPECT_EQ(log_adc.encode(1e300), log_adc.levels() - 1);
}

TEST(LogAdc, CodesUniformInLogDomain) {
  const LogAdc adc(6, 1e-9, 1e-3);
  // Equal current *ratios* map to equal code differences.
  const auto c1 = adc.encode(1e-8);
  const auto c2 = adc.encode(1e-7);
  const auto c3 = adc.encode(1e-6);
  EXPECT_NEAR(static_cast<double>(c2) - c1, static_cast<double>(c3) - c2, 1.01);
}

TEST(LogAdc, ReadLogQuantizesLog) {
  const LogAdc adc(8, 1e-9, 1e-3);
  const double i = 3.7e-6;
  const double step = (adc.log_i_max() - adc.log_i_min()) / 255.0;
  EXPECT_NEAR(adc.read_log(i), std::log(i), step);
}

TEST(LogAdc, FloorsNonPositiveCurrent) {
  const LogAdc adc(4, 1e-9, 1e-3);
  EXPECT_EQ(adc.encode(0.0), 0u);
  EXPECT_EQ(adc.encode(-1.0), 0u);
}

class ConverterBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(ConverterBitsTest, DacErrorHalvesPerBit) {
  const int bits = GetParam();
  const Dac coarse(bits, 0.0, 1.0);
  const Dac fine(bits + 1, 0.0, 1.0);
  core::Rng rng(bits);
  double worst_coarse = 0.0, worst_fine = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform();
    worst_coarse = std::max(worst_coarse, std::abs(coarse.quantize(v) - v));
    worst_fine = std::max(worst_fine, std::abs(fine.quantize(v) - v));
  }
  EXPECT_NEAR(worst_coarse / worst_fine, 2.0, 0.25);
}

TEST_P(ConverterBitsTest, LogAdcRelativeErrorBounded) {
  const int bits = GetParam();
  const LogAdc adc(bits, 1e-9, 1e-3);
  const double step =
      (adc.log_i_max() - adc.log_i_min()) / (std::pow(2.0, bits) - 1.0);
  core::Rng rng(bits + 100);
  for (int i = 0; i < 500; ++i) {
    const double log_i = rng.uniform(adc.log_i_min(), adc.log_i_max());
    const double i_a = std::exp(log_i);
    EXPECT_LE(std::abs(adc.read_log(i_a) - log_i), 0.5 * step + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(BitSweep, ConverterBitsTest,
                         ::testing::Values(3, 4, 5, 6, 8, 10));

TEST(Noise, DisabledPassesThrough) {
  core::Rng rng(5);
  NoiseParams p;
  p.enabled = false;
  EXPECT_DOUBLE_EQ(noisy_current(1e-6, p, rng), 1e-6);
}

TEST(Noise, VarianceMatchesModel) {
  core::Rng rng(7);
  NoiseParams p;  // defaults
  const double i = 1e-6;
  core::RunningStats s;
  for (int k = 0; k < 20000; ++k) s.add(noisy_current(i, p, rng));
  const double expected_var =
      p.shot_coeff_a * i + p.thermal_floor_a * p.thermal_floor_a;
  EXPECT_NEAR(s.mean(), i, 3e-10);
  EXPECT_NEAR(s.variance(), expected_var, 0.05 * expected_var);
}

TEST(Noise, NeverNegative) {
  core::Rng rng(9);
  NoiseParams p;
  p.thermal_floor_a = 1e-6;  // huge floor vs tiny current
  for (int k = 0; k < 1000; ++k)
    EXPECT_GE(noisy_current(1e-9, p, rng), 0.0);
}

TEST(GaussianFit, RecoversSyntheticParameters) {
  std::vector<double> xs, ys;
  for (double v = 0.0; v <= 1.0; v += 0.01) {
    xs.push_back(v);
    ys.push_back(4e-6 * std::exp(-(v - 0.42) * (v - 0.42) / (2 * 0.07 * 0.07)));
  }
  const auto f = fit_gaussian(xs, ys);
  EXPECT_NEAR(f.amplitude, 4e-6, 1e-8);
  EXPECT_NEAR(f.center, 0.42, 1e-4);
  EXPECT_NEAR(f.sigma, 0.07, 1e-4);
  EXPECT_NEAR(f.r2, 1.0, 1e-6);
}

TEST(GaussianFit, RejectsNonBumpData) {
  std::vector<double> xs, ys;
  for (double v = 0.0; v <= 1.0; v += 0.05) {
    xs.push_back(v);
    ys.push_back(std::exp(2.0 * v));  // convex growth, not a bump
  }
  const auto f = fit_gaussian(xs, ys);
  EXPECT_LE(f.r2, 0.5);
}

class AllocateColumnsTest
    : public ::testing::TestWithParam<std::pair<std::vector<double>, int>> {};

TEST_P(AllocateColumnsTest, ExactTotalAndProportionality) {
  const auto& [weights, total] = GetParam();
  const auto alloc = allocate_columns(weights, total);
  int sum = 0;
  double wsum = 0.0;
  for (double w : weights) wsum += w;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    sum += alloc[i];
    EXPECT_GE(alloc[i], 1);
    // Within one column of the proportional share (plus the 1 floor).
    const double share = weights[i] / wsum * total;
    EXPECT_NEAR(alloc[i], share, std::max(2.0, 0.35 * share));
  }
  EXPECT_EQ(sum, total);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AllocateColumnsTest,
    ::testing::Values(
        std::make_pair(std::vector<double>{1, 1, 1, 1}, 100),
        std::make_pair(std::vector<double>{1, 2, 3, 4}, 57),
        std::make_pair(std::vector<double>{0.01, 0.99}, 10),
        std::make_pair(std::vector<double>{5, 0.0, 5}, 11),
        std::make_pair(std::vector<double>{1}, 7)));

TEST(AllocateColumns, RequiresEnoughColumns) {
  EXPECT_THROW(allocate_columns({1, 1, 1}, 2), std::invalid_argument);
}

class LikelihoodArrayTest : public ::testing::Test {
 protected:
  static std::vector<VoltageComponent> three_components() {
    return {{{0.3, 0.5, 0.5}, {0.06, 0.06, 0.06}, 0.5},
            {{0.6, 0.4, 0.5}, {0.08, 0.06, 0.08}, 0.3},
            {{0.5, 0.7, 0.4}, {0.05, 0.08, 0.06}, 0.2}};
  }
};

TEST_F(LikelihoodArrayTest, CurrentPeaksAtComponentCenters) {
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 60;
  cfg.mismatch_sigma_vt_v = 0.0;
  cfg.noise.enabled = false;
  core::Rng rng(11);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  const double at_center = arr.ideal_current({0.3, 0.5, 0.5});
  const double off_center = arr.ideal_current({0.45, 0.6, 0.6});
  EXPECT_GT(at_center, off_center);
}

TEST_F(LikelihoodArrayTest, ColumnAllocationFollowsWeights) {
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 100;
  core::Rng rng(13);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  const auto& cols = arr.columns_per_component();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_NEAR(cols[0], 50, 2);
  EXPECT_NEAR(cols[1], 30, 2);
  EXPECT_NEAR(cols[2], 20, 2);
  EXPECT_EQ(cols[0] + cols[1] + cols[2], 100);
}

TEST_F(LikelihoodArrayTest, TracksDigitalMixtureShape) {
  // Noise-free array current should correlate strongly with the ideal
  // unit-peak mixture intensity over the voltage window.
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 90;
  cfg.dac_bits = 8;
  cfg.mismatch_sigma_vt_v = 0.0;
  cfg.noise.enabled = false;
  core::Rng rng(17);
  const auto comps = three_components();
  const CimLikelihoodArray arr(cfg, comps, rng);

  core::Rng prng(19);
  std::vector<double> hw, model;
  for (int k = 0; k < 300; ++k) {
    const core::Vec3 p{prng.uniform(0.15, 0.85), prng.uniform(0.15, 0.85),
                       prng.uniform(0.15, 0.85)};
    hw.push_back(arr.ideal_current(p));
    double m = 0.0;
    for (const auto& c : comps) {
      double inv_sum = 0.0;
      for (int d = 0; d < 3; ++d) {
        const double u = (p[d] - c.center_v[d]) / c.sigma_v[d];
        inv_sum += std::exp(0.5 * u * u);
      }
      m += c.weight / inv_sum;
    }
    model.push_back(m);
  }
  // The physical bump's sech-like tails depart from the ideal
  // Gaussian kernel, costing a little correlation (see DESIGN.md).
  EXPECT_GT(core::pearson_correlation(hw, model), 0.95);
}

TEST_F(LikelihoodArrayTest, MismatchDegradesAndVerifyRestores) {
  const auto comps = three_components();
  auto field_error = [&](double mismatch, bool verify) {
    LikelihoodArrayConfig cfg;
    cfg.total_columns = 60;
    cfg.dac_bits = 8;
    cfg.mismatch_sigma_vt_v = mismatch;
    cfg.program_verify = verify;
    cfg.noise.enabled = false;
    core::Rng rng(23);
    const CimLikelihoodArray arr(cfg, comps, rng);
    LikelihoodArrayConfig ref_cfg = cfg;
    ref_cfg.mismatch_sigma_vt_v = 0.0;
    core::Rng rng2(23);
    const CimLikelihoodArray ref(ref_cfg, comps, rng2);
    double err = 0.0;
    core::Rng prng(29);
    for (int k = 0; k < 150; ++k) {
      const core::Vec3 p{prng.uniform(0.2, 0.8), prng.uniform(0.2, 0.8),
                         prng.uniform(0.2, 0.8)};
      const double a = arr.ideal_current(p), b = ref.ideal_current(p);
      err += std::abs(a - b) / (std::abs(b) + 1e-12);
    }
    return err / 150.0;
  };
  const double with_verify = field_error(0.03, true);
  const double without_verify = field_error(0.03, false);
  EXPECT_LT(with_verify, without_verify);
}

TEST_F(LikelihoodArrayTest, LogLikelihoodMonotoneInCurrent) {
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 60;
  cfg.noise.enabled = false;
  core::Rng rng(31);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  core::Rng nrng(33);
  const double near = arr.read_log_likelihood({0.3, 0.5, 0.5}, nrng);
  const double far = arr.read_log_likelihood({0.85, 0.15, 0.85}, nrng);
  EXPECT_GT(near, far);
}

// Bit-level fingerprint of a programmed array: FNV-1a over the IEEE-754
// bits of ideal_current at every DAC code triple, plus the number of
// triples that read exactly 0 A.
std::pair<std::uint64_t, std::uint64_t> code_cube_fingerprint(
    const CimLikelihoodArray& arr) {
  const Dac& dac = arr.dac();
  for (std::uint32_t c = 0; c < dac.levels(); ++c)
    EXPECT_EQ(dac.encode(dac.decode(c)), c);  // decode reaches every code
  std::uint64_t hash = 14695981039346656037ull, zeros = 0;
  for (std::uint32_t x = 0; x < dac.levels(); ++x)
    for (std::uint32_t y = 0; y < dac.levels(); ++y)
      for (std::uint32_t z = 0; z < dac.levels(); ++z) {
        const double i = arr.ideal_current(
            {dac.decode(x), dac.decode(y), dac.decode(z)});
        if (i == 0.0) ++zeros;
        const auto bits = std::bit_cast<std::uint64_t>(i);
        for (int b = 0; b < 64; b += 8) {
          hash ^= (bits >> b) & 0xffu;
          hash *= 1099511628211ull;
        }
      }
  return {hash, zeros};
}

// Golden hashes pinned from the per-read harmonic-sum kernel that preceded
// the reciprocal table, on x86-64 with glibc's libm. The device model's
// multiply-adds contract to FMA when the target has it (-march=native on
// an FMA host), which changes the tabulated currents, so each build kind
// has its own value.
#if defined(__FMA__)
constexpr std::uint64_t kGoldenDefault = 0xd062001c51b7e4bdull;
constexpr std::uint64_t kGoldenCold = 0xb872ab92cc913117ull;
#else
constexpr std::uint64_t kGoldenDefault = 0x47dee040a927de04ull;
constexpr std::uint64_t kGoldenCold = 0x65ee7394ee2d5f13ull;
#endif

TEST_F(LikelihoodArrayTest, CodeCubeMatchesGoldenHash) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden hashes are pinned for x86-64 only";
#endif
  LikelihoodArrayConfig cfg;
  cfg.dac_bits = 6;
  core::Rng rng(41);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  const auto [hash, zeros] = code_cube_fingerprint(arr);
  EXPECT_EQ(hash, kGoldenDefault);
  EXPECT_EQ(zeros, 0u);  // at default devices no branch switches fully off
}

TEST_F(LikelihoodArrayTest, ColdCornerCodeCubeMatchesGoldenHash) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden hashes are pinned for x86-64 only";
#endif
  // A 4 mV thermal voltage makes the subthreshold tails so steep that
  // nearly half of the code triples see a branch fully off in every
  // column: this pins the off-branch (+inf reciprocal) encoding.
  LikelihoodArrayConfig cfg;
  cfg.dac_bits = 6;
  cfg.nmos.thermal_vt_v = 0.004;
  cfg.pmos.thermal_vt_v = 0.004;
  core::Rng rng(43);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  const auto [hash, zeros] = code_cube_fingerprint(arr);
  EXPECT_EQ(hash, kGoldenCold);
  EXPECT_GT(zeros, 100000u);
}

TEST_F(LikelihoodArrayTest, RejectsBadConfig) {
  core::Rng rng(39);
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 2;  // fewer than components
  EXPECT_THROW(CimLikelihoodArray(cfg, three_components(), rng),
               std::invalid_argument);
  EXPECT_THROW(CimLikelihoodArray(LikelihoodArrayConfig{}, {}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace cimnav::circuit
