// Unit tests for the SRAM-embedded RNG and the 8T CIM layer: gate packing,
// the layer itself (parameterized over every registered compute backend),
// its array grid, and golden hashes of every read kind. Cross-backend and
// grid-vs-unbounded equivalence (bitwise + statistical) lives in the
// conformance harness — tests/conformance/ sweeps every registered backend
// over randomized geometry/input/noise/dispatch cases, so hand-written
// equivalence tests do not belong here anymore.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "cimsram/backend.hpp"
#include "cimsram/cim_macro.hpp"
#include "cimsram/sram_rng.hpp"
#include "core/rng.hpp"
#include "core/stat_tolerances.hpp"
#include "core/stats.hpp"

namespace cimnav::cimsram {
namespace {

using core::Rng;
namespace tol = core::tol;

TEST(SramRng, BitsAreRandomAfterCalibration) {
  Rng process(3), noise(5);
  SramRng rng(SramRngParams{}, process);
  rng.calibrate(4096, noise);
  const double bias = rng.measure_bias(20000, noise);
  EXPECT_NEAR(bias, 0.5, tol::kBitBiasTol);
}

TEST(SramRng, CalibrationReducesBias) {
  SramRngParams p;
  p.comparator_offset_sigma_a = 4e-10;  // strong offset -> visible bias
  Rng process(7), noise(9);
  SramRng rng(p, process);
  const double before = rng.measure_bias(8000, noise);
  rng.calibrate(8192, noise);
  const double after = rng.measure_bias(8000, noise);
  EXPECT_LT(std::abs(after - 0.5), std::abs(before - 0.5) + 0.01);
  EXPECT_NEAR(after, 0.5, tol::kBitBiasCalibratedTol);
}

TEST(SramRng, MoreRowsReduceRelativeOffset) {
  // The paper's Fig. 3(b) physics, part 1: the systematic bundle offset
  // relative to the total leakage shrinks as 1/sqrt(rows).
  auto relative_offset = [](int rows) {
    double total = 0.0;
    const int trials = 24;
    for (int t = 0; t < trials; ++t) {
      SramRngParams p;
      p.rows = rows;
      p.comparator_offset_sigma_a = 0.0;
      Rng process(100 + static_cast<std::uint64_t>(t));
      SramRng rng(p, process);
      const double mean_leak = p.leak_nominal_a * rows *
                               p.columns_per_side * 2.0;
      total += std::abs(rng.systematic_offset_a()) / mean_leak;
    }
    return total / trials;
  };
  EXPECT_LT(relative_offset(256), 0.5 * relative_offset(16));
}

TEST(SramRng, MoreRowsFilterMismatchIntoBias) {
  // Part 2: with supply-jitter noise proportional to total current, the
  // shrinking relative offset turns into raw bias approaching 1/2.
  auto mean_abs_bias = [](int rows) {
    double total = 0.0;
    const int trials = 24;
    for (int t = 0; t < trials; ++t) {
      SramRngParams p;
      p.rows = rows;
      p.comparator_offset_sigma_a = 0.0;
      p.supply_jitter_coeff = 0.02;  // jitter-dominated instance
      Rng process(100 + static_cast<std::uint64_t>(t)), noise(7);
      SramRng rng(p, process);
      total += std::abs(rng.measure_bias(3000, noise) - 0.5);
    }
    return total / trials;
  };
  EXPECT_LT(mean_abs_bias(256), mean_abs_bias(16));
}

TEST(SramRng, BitsAreSeriallyUncorrelated) {
  Rng process(11), noise(13);
  SramRng rng(SramRngParams{}, process);
  rng.calibrate(4096, noise);
  std::vector<double> bits;
  for (int i = 0; i < 20000; ++i)
    bits.push_back(rng.next_bit(noise) ? 1.0 : 0.0);
  // Lag-1 autocorrelation should vanish.
  std::vector<double> a(bits.begin(), bits.end() - 1);
  std::vector<double> b(bits.begin() + 1, bits.end());
  EXPECT_NEAR(core::pearson_correlation(a, b), 0.0, tol::kAutocorrTol);
}

TEST(SramRng, BernoulliResolutionControlsP) {
  Rng process(17), noise(19);
  SramRng rng(SramRngParams{}, process);
  rng.calibrate(4096, noise);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    ones += rng.bernoulli(0.25, 8, noise) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.25, tol::kBitBiasTol);
}

TEST(SramRng, DropoutMaskHasExpectedDensity) {
  Rng process(23), noise(29);
  SramRng rng(SramRngParams{}, process);
  rng.calibrate(4096, noise);
  const auto mask = rng.dropout_mask(10000, noise);
  int ones = 0;
  for (auto b : mask) ones += b;
  EXPECT_NEAR(ones / 10000.0, 0.5, tol::kBitBiasTol);
}

TEST(SramRng, CountsGeneratedBits) {
  Rng process(31), noise(37);
  SramRng rng(SramRngParams{}, process);
  const auto before = rng.bits_generated();
  rng.dropout_mask(100, noise);
  EXPECT_EQ(rng.bits_generated(), before + 100);
}

TEST(Lfsr, BalancedAndDeterministic) {
  Lfsr a(0x1234), b(0x1234);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) {
    const bool bit = a.next_bit();
    EXPECT_EQ(bit, b.next_bit());
    ones += bit ? 1 : 0;
  }
  EXPECT_NEAR(ones / 10000.0, 0.5, 0.03);
}

TEST(Lfsr, ZeroSeedIsRescued) {
  Lfsr l(0);
  bool any_one = false;
  for (int i = 0; i < 64; ++i) any_one = any_one || l.next_bit();
  EXPECT_TRUE(any_one);
}

// Shared helpers for the macro tests.
std::vector<double> random_weights(int n_out, int n_in, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(static_cast<std::size_t>(n_out) *
                        static_cast<std::size_t>(n_in));
  for (auto& v : w) v = rng.normal(0.0, 0.3);
  return w;
}
std::vector<double> random_input(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform();
  return x;
}
std::vector<double> reference_matvec(const std::vector<double>& w, int n_out,
                                     int n_in, const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(n_out), 0.0);
  for (int o = 0; o < n_out; ++o)
    for (int i = 0; i < n_in; ++i)
      y[static_cast<std::size_t>(o)] +=
          w[static_cast<std::size_t>(o) * n_in + static_cast<std::size_t>(i)] *
          x[static_cast<std::size_t>(i)];
  return y;
}

// The whole macro behavior suite runs once per registered backend.
class CimMacroTest : public ::testing::TestWithParam<std::string> {
 protected:
  CimMacroConfig base_config() const {
    CimMacroConfig cfg;
    cfg.backend = GetParam();
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, CimMacroTest,
                         ::testing::ValuesIn(backend_names()),
                         [](const auto& info) { return info.param; });

TEST_P(CimMacroTest, IdealMatchesFloatWithinQuantError) {
  const int n_out = 16, n_in = 48;
  const auto w = random_weights(n_out, n_in, 3);
  const auto x = random_input(n_in, 5);
  CimMacroConfig cfg = base_config();
  cfg.input_bits = 8;
  cfg.weight_bits = 8;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 255.0);
  const auto y = macro.matvec_ideal(x, {}, {});
  const auto ref = reference_matvec(w, n_out, n_in, x);
  for (int o = 0; o < n_out; ++o) {
    EXPECT_NEAR(y[static_cast<std::size_t>(o)], ref[static_cast<std::size_t>(o)],
                0.05);
  }
}

struct BitsCase {
  int bits;
  double tolerance;
};

class MacroPrecisionTest : public ::testing::TestWithParam<BitsCase> {};

TEST_P(MacroPrecisionTest, ErrorShrinksWithPrecision) {
  const int n_out = 12, n_in = 40;
  Rng wrng(7);
  std::vector<double> w(static_cast<std::size_t>(n_out * n_in));
  for (auto& v : w) v = wrng.normal(0.0, 0.3);
  std::vector<double> x(static_cast<std::size_t>(n_in));
  for (auto& v : x) v = wrng.uniform();

  CimMacroConfig cfg;
  cfg.input_bits = GetParam().bits;
  cfg.weight_bits = GetParam().bits;
  cfg.adc_bits = 10;  // isolate input/weight quantization
  const CimMacro macro(w, n_out, n_in, cfg,
                       1.0 / ((1 << GetParam().bits) - 1));
  const auto y = macro.matvec_ideal(x, {}, {});
  double err = 0.0, mag = 0.0;
  for (int o = 0; o < n_out; ++o) {
    double ref = 0.0;
    for (int i = 0; i < n_in; ++i)
      ref += w[static_cast<std::size_t>(o * n_in + i)] *
             x[static_cast<std::size_t>(i)];
    err += std::abs(y[static_cast<std::size_t>(o)] - ref);
    mag += std::abs(ref);
  }
  EXPECT_LT(err / mag, GetParam().tolerance);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MacroPrecisionTest,
                         ::testing::Values(BitsCase{4, 0.30},
                                           BitsCase{6, 0.08},
                                           BitsCase{8, 0.02},
                                           BitsCase{10, 0.006}));

TEST_P(CimMacroTest, InputMaskZerosContribution) {
  const int n_out = 8, n_in = 16;
  const auto w = random_weights(n_out, n_in, 11);
  std::vector<double> x(static_cast<std::size_t>(n_in), 0.5);
  CimMacroConfig cfg = base_config();
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);
  std::vector<std::uint8_t> none(static_cast<std::size_t>(n_in), 0);
  const auto y = macro.matvec_ideal(x, none, {});
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_P(CimMacroTest, OutputMaskSkipsColumns) {
  const int n_out = 8, n_in = 16;
  const auto w = random_weights(n_out, n_in, 13);
  const auto x = random_input(n_in, 17);
  CimMacroConfig cfg = base_config();
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n_out), 1);
  mask[3] = 0;
  const auto y = macro.matvec_ideal(x, {}, mask);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
  const auto full = macro.matvec_ideal(x, {}, {});
  for (int o = 0; o < n_out; ++o) {
    if (o == 3) continue;
    EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(o)],
                     full[static_cast<std::size_t>(o)]);
  }
}

TEST_P(CimMacroTest, RowSubsetsAddUpExactlyInIdealMode) {
  // The delta rule's foundation: W x|_A + W x|_B == W x when A and B
  // partition the active rows (exact for the noise-free quantized macro).
  const int n_out = 10, n_in = 32;
  const auto w = random_weights(n_out, n_in, 19);
  const auto x = random_input(n_in, 23);
  CimMacroConfig cfg = base_config();
  cfg.analog_noise = false;
  cfg.adc_bits = 12;  // effectively lossless column readout
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);

  std::vector<std::uint8_t> mask_a(static_cast<std::size_t>(n_in), 0);
  std::vector<std::uint8_t> mask_b(static_cast<std::size_t>(n_in), 0);
  for (int i = 0; i < n_in; ++i)
    (i % 2 == 0 ? mask_a : mask_b)[static_cast<std::size_t>(i)] = 1;
  Rng rng(29);
  const auto ya = macro.matvec(x, mask_a, {}, rng);
  const auto yb = macro.matvec(x, mask_b, {}, rng);
  const auto yfull = macro.matvec(x, {}, {}, rng);
  for (int o = 0; o < n_out; ++o) {
    EXPECT_NEAR(ya[static_cast<std::size_t>(o)] + yb[static_cast<std::size_t>(o)],
                yfull[static_cast<std::size_t>(o)], 1e-9);
  }
}

TEST_P(CimMacroTest, AnalogNoiseScalesWithActiveRows) {
  const int n_out = 1, n_in = 64;
  std::vector<double> w(static_cast<std::size_t>(n_in), 0.3);
  std::vector<double> x(static_cast<std::size_t>(n_in), 0.8);
  CimMacroConfig cfg = base_config();
  cfg.adc_bits = 14;  // make quantization negligible vs noise
  cfg.noise_coeff = 0.5;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);
  Rng rng(31);
  core::RunningStats few, many;
  std::vector<std::uint8_t> rows_few(static_cast<std::size_t>(n_in), 0);
  rows_few[0] = rows_few[1] = rows_few[2] = rows_few[3] = 1;
  for (int k = 0; k < 400; ++k) {
    many.add(macro.matvec(x, {}, {}, rng)[0]);
    few.add(macro.matvec(x, rows_few, {}, rng)[0]);
  }
  EXPECT_GT(many.stddev(), few.stddev());
}

TEST_P(CimMacroTest, CoarseAdcAddsError) {
  const int n_out = 6, n_in = 40;
  const auto w = random_weights(n_out, n_in, 37);
  const auto x = random_input(n_in, 41);
  auto rel_err = [&](int adc_bits) {
    CimMacroConfig cfg = base_config();
    cfg.analog_noise = false;
    cfg.adc_bits = adc_bits;
    const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);
    Rng rng(43);
    const auto y = macro.matvec(x, {}, {}, rng);
    const auto ref = macro.matvec_ideal(x, {}, {});
    double e = 0.0, m = 0.0;
    for (int o = 0; o < n_out; ++o) {
      e += std::abs(y[static_cast<std::size_t>(o)] -
                    ref[static_cast<std::size_t>(o)]);
      m += std::abs(ref[static_cast<std::size_t>(o)]);
    }
    return e / m;
  };
  EXPECT_GT(rel_err(3), rel_err(6));
  EXPECT_GT(rel_err(6), rel_err(10) - 1e-12);
}

TEST_P(CimMacroTest, StatsTrackActivity) {
  const int n_out = 8, n_in = 16;
  const auto w = random_weights(n_out, n_in, 47);
  const auto x = random_input(n_in, 53);
  CimMacroConfig cfg = base_config();
  cfg.input_bits = 4;
  cfg.weight_bits = 4;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 15.0);
  Rng rng(59);
  macro.matvec(x, {}, {}, rng);
  const auto& s = macro.stats();
  EXPECT_EQ(s.matvec_calls, 1u);
  // cycles = 2 signs * 3 planes * 4 input bits = 24
  EXPECT_EQ(s.analog_cycles, 24u);
  EXPECT_EQ(s.wordline_pulses, 24u * 16u);
  EXPECT_EQ(s.adc_conversions, 24u * 8u);
  EXPECT_EQ(s.nominal_macs, static_cast<std::uint64_t>(n_in) * n_out);

  // Masked call counts only active rows/cols.
  std::vector<std::uint8_t> in_mask(static_cast<std::size_t>(n_in), 1);
  in_mask[0] = in_mask[1] = 0;
  std::vector<std::uint8_t> out_mask(static_cast<std::size_t>(n_out), 1);
  out_mask[7] = 0;
  macro.reset_stats();
  macro.matvec(x, in_mask, out_mask, rng);
  EXPECT_EQ(macro.stats().wordline_pulses, 24u * 14u);
  EXPECT_EQ(macro.stats().adc_conversions, 24u * 7u);
}

TEST_P(CimMacroTest, RejectsBadArguments) {
  CimMacroConfig cfg = base_config();
  EXPECT_THROW(CimMacro({1.0}, 1, 2, cfg, 1.0), std::invalid_argument);
  const CimMacro macro({0.5, -0.5}, 1, 2, cfg, 1.0);
  Rng rng(61);
  EXPECT_THROW(macro.matvec({1.0}, {}, {}, rng), std::invalid_argument);
}

TEST_P(CimMacroTest, RejectsNonFiniteWeights) {
  const CimMacroConfig cfg = base_config();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(CimMacro({0.5, bad}, 1, 2, cfg, 1.0), std::invalid_argument)
        << bad;
  }
}

TEST_P(CimMacroTest, DeltaRejectsRowsPastTheLayer) {
  // A flip-list row past n_in still lands inside the last packed gate
  // word, so only an explicit row check keeps it from driving a phantom
  // word line. Both rails, on an unbounded layer and on an array grid.
  CimMacroConfig cfg = base_config();
  std::vector<double> y;
  Rng rng(67);
  const std::size_t ok = 0;

  const CimMacro macro({0.5, -0.5}, 1, 2, cfg, 1.0);
  EncodedInput enc;
  macro.encode_input({1.0, 1.0}, enc);
  const std::size_t bad = 5;
  EXPECT_THROW(macro.matvec_delta(enc, &bad, 1, nullptr, 0, rng, y),
               std::invalid_argument);
  EXPECT_THROW(macro.matvec_delta(enc, &ok, 1, &bad, 1, rng, y),
               std::invalid_argument);

  cfg.max_rows = 64;
  const int n_in = 130;  // 3 row blocks, the last one 2 rows wide
  const CimMacro grid(std::vector<double>(n_in, 0.25), 1, n_in, cfg, 1.0);
  ASSERT_EQ(grid.grid_rows(), 3);
  grid.encode_input(std::vector<double>(n_in, 1.0), enc);
  const std::size_t past = static_cast<std::size_t>(n_in);
  EXPECT_THROW(grid.matvec_delta(enc, &past, 1, nullptr, 0, rng, y),
               std::invalid_argument);
  EXPECT_THROW(grid.matvec_delta(enc, &ok, 1, &past, 1, rng, y),
               std::invalid_argument);

  // In-range duplicates are idempotent: same driven lines, same bits.
  const std::size_t dup[] = {3, 3, 65};
  const std::size_t once[] = {3, 65};
  std::vector<double> y_dup, y_once;
  Rng r1(71), r2(71);
  grid.reset_stats();
  grid.matvec_delta(enc, dup, 3, nullptr, 0, r1, y_dup);
  const std::uint64_t pulses = grid.stats().wordline_pulses;
  grid.reset_stats();
  grid.matvec_delta(enc, once, 2, nullptr, 0, r2, y_once);
  EXPECT_EQ(y_dup, y_once);
  EXPECT_EQ(pulses, grid.stats().wordline_pulses);
}

TEST_P(CimMacroTest, DeltaRejectsEmptyFlipLists) {
  // A delta read with no changed row is a caller bug: unbounded layers
  // and grids refuse it before drawing from the rng or touching the
  // counters.
  CimMacroConfig cfg = base_config();
  std::vector<double> y;
  EncodedInput enc;
  const std::size_t row = 0;

  const CimMacro macro({0.5, -0.5}, 1, 2, cfg, 1.0);
  macro.encode_input({1.0, 1.0}, enc);
  Rng rng(83), untouched(83);
  EXPECT_THROW(macro.matvec_delta(enc, nullptr, 0, nullptr, 0, rng, y),
               std::invalid_argument);
  EXPECT_THROW(macro.matvec_delta(enc, &row, 0, &row, 0, rng, y),
               std::invalid_argument);
  EXPECT_EQ(macro.stats().matvec_calls, 0u);

  cfg.max_rows = 64;
  const int n_in = 130;
  const CimMacro grid(std::vector<double>(n_in, 0.25), 1, n_in, cfg, 1.0);
  grid.encode_input(std::vector<double>(n_in, 1.0), enc);
  EXPECT_THROW(grid.matvec_delta(enc, nullptr, 0, nullptr, 0, rng, y),
               std::invalid_argument);
  EXPECT_EQ(grid.stats().matvec_calls, 0u);
  EXPECT_EQ(rng(), untouched());
}

TEST_P(CimMacroTest, GatedMatvecValidatesRowGateWidth) {
  // Regression: the engine core used to index a caller-provided packed row
  // gate without checking its width; a short gate read out of bounds.
  const int n_out = 4, n_in = 100;  // 100 rows -> 2 packed gate words
  const auto w = random_weights(n_out, n_in, 71);
  const auto x = random_input(n_in, 73);
  CimMacroConfig cfg = base_config();
  cfg.input_bits = 4;
  cfg.weight_bits = 4;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 15.0);
  Rng rng(79);

  EncodedInput enc;
  macro.encode_input(x, enc);
  std::vector<double> y;
  std::vector<std::uint64_t> short_gate(1, ~std::uint64_t{0});
  EXPECT_THROW(macro.matvec_encoded(enc, short_gate, {}, rng, y),
               std::invalid_argument);
  std::vector<std::uint64_t> long_gate(3, ~std::uint64_t{0});
  EXPECT_THROW(macro.matvec_encoded(enc, long_gate, {}, rng, y),
               std::invalid_argument);

  // A correctly-sized all-ones gate matches the unmasked product exactly
  // in the ideal sense: same active rows, same stats accounting.
  std::vector<std::uint64_t> gate;
  pack_row_mask({}, n_in, gate);
  macro.reset_stats();
  macro.matvec_encoded(enc, gate, {}, rng, y);
  EXPECT_EQ(y.size(), static_cast<std::size_t>(n_out));
  EXPECT_EQ(macro.stats().wordline_pulses,
            macro.stats().analog_cycles * static_cast<std::uint64_t>(n_in));
}

// Reads input row i's code back out of a packed encoding.
std::uint32_t encoded_code(const EncodedInput& enc, int n_in, int input_bits,
                           int i) {
  const std::size_t words = static_cast<std::size_t>((n_in + 63) / 64);
  std::uint32_t q = 0;
  for (int b = 0; b < input_bits; ++b)
    q |= static_cast<std::uint32_t>(
             (enc.planes[static_cast<std::size_t>(b) * words +
                         static_cast<std::size_t>(i / 64)] >>
              (i % 64)) &
             1u)
         << b;
  return q;
}

TEST(InputEncoder, SaturatesHugeAndNonFiniteInputs) {
  // The quantizer clamps before converting to an integer: huge values and
  // +inf take the top code, -inf and NaN take code 0, and in-range values
  // keep their rounded code. Same encoder for an unbounded layer and a
  // grid.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> x = {1e12, inf,  -inf, std::nan(""),
                                 0.25, -3.0, 1.0,  10.0};
  const std::vector<std::uint32_t> want = {63, 63, 0, 0, 16, 0, 63, 63};
  // The finite stand-ins that quantize to the same codes.
  const std::vector<double> clamped = {10.0, 10.0, 0.0, 0.0,
                                       0.25, 0.0,  1.0, 10.0};
  const int n_in = static_cast<int>(x.size());
  const auto w = random_weights(4, n_in, 251);
  CimMacroConfig cfg;  // 6-bit inputs
  const CimMacro mono(w, 4, n_in, cfg, 1.0 / 63.0);
  cfg.max_cols = 2;
  const CimMacro grid(w, 4, n_in, cfg, 1.0 / 63.0);
  ASSERT_EQ(grid.grid_cols(), 2);

  for (const CimMacro* m : {&mono, &grid}) {
    EncodedInput enc;
    m->encode_input(x, enc);
    for (int i = 0; i < n_in; ++i)
      EXPECT_EQ(encoded_code(enc, n_in, cfg.input_bits, i),
                want[static_cast<std::size_t>(i)])
          << "input " << x[static_cast<std::size_t>(i)];
    EXPECT_EQ(m->matvec_ideal(x, {}, {}), m->matvec_ideal(clamped, {}, {}));
  }
}

// ---------------------------------------------------------------------------
// Gate packing edge cases.
// ---------------------------------------------------------------------------

TEST(PackRowMask, EmptyMaskActivatesExactlyNRows) {
  std::vector<std::uint64_t> gate;
  pack_row_mask({}, 100, gate);  // not a multiple of 64
  ASSERT_EQ(gate.size(), 2u);
  int active = 0;
  for (std::uint64_t g : gate) active += std::popcount(g);
  EXPECT_EQ(active, 100);
  // Bits at and above n_rows must stay clear (they would read as phantom
  // active rows in the engine's popcount).
  EXPECT_EQ(gate[1] >> (100 - 64), 0u);
}

TEST(PackRowMask, PartialWordMaskSetsExactBits) {
  std::vector<std::uint8_t> mask(70, 0);
  mask[0] = mask[63] = mask[64] = mask[69] = 1;
  std::vector<std::uint64_t> gate;
  pack_row_mask(mask, 70, gate);
  ASSERT_EQ(gate.size(), 2u);
  EXPECT_EQ(gate[0], (std::uint64_t{1} << 0) | (std::uint64_t{1} << 63));
  EXPECT_EQ(gate[1], (std::uint64_t{1} << 0) | (std::uint64_t{1} << 5));
}

TEST(PackRowMask, WrongSizeThrows) {
  std::vector<std::uint64_t> gate;
  std::vector<std::uint8_t> mask(8, 1);
  EXPECT_THROW(pack_row_mask(mask, 9, gate), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Backend registry.
//
// Cross-backend equivalence (ideal bitwise, noisy statistical), the
// sharded-vs-monolithic bit-identity and the pooled thread-count
// invariance all moved into the conformance sweep: run
//   ctest -R conformance
// or tests/conformance/test_backend_conformance directly.
// ---------------------------------------------------------------------------

TEST(BackendRegistry, KnownNamesResolveAndUnknownThrows) {
  EXPECT_EQ(backend("reference").name(), "reference");
  EXPECT_EQ(backend("bitsliced").name(), "bitsliced");
  EXPECT_EQ(backend("auto").name(), "bitsliced");
  EXPECT_THROW(backend("cuda-someday"), std::invalid_argument);
  const auto names = backend_names();
  ASSERT_GE(names.size(), 2u);
  EXPECT_EQ(names[0], "reference");
}

// ---------------------------------------------------------------------------
// Array grid (accounting + validation; equivalence is in conformance).
// ---------------------------------------------------------------------------

TEST(ArrayGrid, StatsCountPerArrayPhysicalOps) {
  // A column crossing two row blocks pays two ADC conversions per cycle;
  // word lines split per array.
  const int n = 128;
  const auto w = random_weights(n, n, 231);
  CimMacroConfig mono_cfg;
  mono_cfg.input_bits = 4;
  mono_cfg.weight_bits = 4;
  CimMacroConfig grid_cfg = mono_cfg;
  grid_cfg.max_rows = 64;
  grid_cfg.max_cols = 64;
  const CimMacro mono(w, n, n, mono_cfg, 1.0 / 15.0);
  const CimMacro grid(w, n, n, grid_cfg, 1.0 / 15.0);
  const auto x = random_input(n, 233);
  Rng r1(7), r2(7);
  mono.matvec(x, {}, {}, r1);
  grid.matvec(x, {}, {}, r2);
  const auto ms = mono.stats();
  const auto gs = grid.stats();
  EXPECT_EQ(gs.adc_conversions, 2u * ms.adc_conversions);
  EXPECT_EQ(gs.wordline_pulses, 2u * ms.wordline_pulses);
  EXPECT_EQ(gs.nominal_macs, ms.nominal_macs);
  EXPECT_EQ(gs.matvec_calls, 4u);

  // Aggregation operators: snapshot sums and deltas.
  const auto sum = ms + gs;
  EXPECT_EQ(sum.adc_conversions, ms.adc_conversions + gs.adc_conversions);
  const auto delta = gs - ms;
  EXPECT_EQ(delta.adc_conversions, ms.adc_conversions);
}

TEST(ArrayGrid, BoundsShapeTheGridAndAreValidated) {
  const auto w = random_weights(70, 128, 241);
  CimMacroConfig cfg;
  cfg.max_rows = 64;
  cfg.max_cols = 64;
  const CimMacro grid(w, 70, 128, cfg, 1.0 / 63.0);
  EXPECT_EQ(grid.grid_rows(), 2);
  EXPECT_EQ(grid.grid_cols(), 2);

  CimMacroConfig fits;
  fits.max_rows = 128;
  fits.max_cols = 128;
  const CimMacro one(w, 70, 128, fits, 1.0 / 63.0);
  EXPECT_EQ(one.grid_rows(), 1);
  EXPECT_EQ(one.grid_cols(), 1);

  CimMacroConfig unaligned;
  unaligned.max_rows = 100;  // not a multiple of 64
  unaligned.max_cols = 64;
  EXPECT_THROW(CimMacro(w, 70, 128, unaligned, 1.0 / 63.0),
               std::invalid_argument);

  // The bit-width ranges are checked before the shared weight grid
  // shifts by weight_bits (0: a negative shift) and divides by the
  // magnitude range (1: a zero divisor).
  const auto bad_cfg = [&](int input_bits, int weight_bits, int adc_bits) {
    CimMacroConfig bad = cfg;
    bad.input_bits = input_bits;
    bad.weight_bits = weight_bits;
    bad.adc_bits = adc_bits;
    return bad;
  };
  for (const CimMacroConfig& bad :
       {bad_cfg(6, 0, 6), bad_cfg(6, 1, 6), bad_cfg(6, 13, 6),
        bad_cfg(0, 6, 6), bad_cfg(13, 6, 6), bad_cfg(6, 6, 0),
        bad_cfg(6, 6, 17)})
    EXPECT_THROW(CimMacro(w, 70, 128, bad, 1.0 / 63.0),
                 std::invalid_argument)
        << bad.input_bits << "/" << bad.weight_bits << "/" << bad.adc_bits;
  EXPECT_THROW(CimMacro(w, 70, 128, cfg, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden read hashes: every read kind of a layer, bit for bit, on one
// unbounded layer and one ragged 2x2 array grid.
// ---------------------------------------------------------------------------

/// FNV-1a over the eight bytes of `v`.
void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 64; b += 8) {
    h ^= (v >> b) & 0xffu;
    h *= 1099511628211ull;
  }
}

void fnv_fold(std::uint64_t& h, const std::vector<double>& y) {
  for (double v : y) fnv_fold(h, std::bit_cast<std::uint64_t>(v));
}

std::vector<std::uint8_t> random_mask(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> m(static_cast<std::size_t>(n));
  for (auto& b : m) b = rng.uniform() < 0.6 ? 1 : 0;
  return m;
}

/// Hash over a 70 x 100 layer's reads with backend `be`: ideal matvec
/// reads, then under an ADC-only and a noisy config the matvec,
/// matvec_encoded and three delta reads (add-only inside the first row
/// block, remove-only, two-sided) per sample, each sample's next rng draw,
/// and every config's activity counters.
std::uint64_t layer_read_hash(const std::string& be, int max_rows,
                              int max_cols) {
  const int n_out = 70, n_in = 100;
  const auto w = random_weights(n_out, n_in, 301);
  const std::size_t add_only[] = {3, 40};
  const std::size_t rem_only[] = {64, 99};
  const std::size_t two_add[] = {1, 70};
  const std::size_t two_rem[] = {2, 63, 95};
  std::uint64_t h = 14695981039346656037ull;
  for (int mode = 0; mode < 3; ++mode) {
    CimMacroConfig cfg;
    cfg.backend = be;
    cfg.max_rows = max_rows;
    cfg.max_cols = max_cols;
    if (mode == 1) {
      cfg.analog_noise = false;
      cfg.adc_bits = 5;
    } else if (mode == 2) {
      cfg.noise_coeff = 0.3;
    }
    const CimMacro layer(w, n_out, n_in, cfg, 1.0 / 63.0);
    for (std::uint64_t s = 0; s < 3; ++s) {
      auto x = random_input(n_in, 310 + s);
      x[static_cast<std::size_t>(s)] = 1.5;  // past the top code
      const std::vector<std::uint8_t> in_mask =
          s == 0 ? std::vector<std::uint8_t>{} : random_mask(n_in, 320 + s);
      const std::vector<std::uint8_t> out_mask =
          s == 1 ? std::vector<std::uint8_t>{} : random_mask(n_out, 330 + s);
      if (mode == 0) {
        fnv_fold(h, layer.matvec_ideal(x, in_mask, out_mask));
        continue;
      }
      Rng rng(340 + s);
      fnv_fold(h, layer.matvec(x, in_mask, out_mask, rng));
      EncodedInput enc;
      layer.encode_input(x, enc);
      std::vector<std::uint64_t> gate;
      pack_row_mask(in_mask, n_in, gate);
      std::vector<double> y;
      layer.matvec_encoded(enc, gate, out_mask, rng, y);
      fnv_fold(h, y);
      layer.matvec_delta(enc, add_only, 2, nullptr, 0, rng, y);
      fnv_fold(h, y);
      layer.matvec_delta(enc, nullptr, 0, rem_only, 2, rng, y);
      fnv_fold(h, y);
      layer.matvec_delta(enc, two_add, 2, two_rem, 3, rng, y);
      fnv_fold(h, y);
      fnv_fold(h, rng());
    }
    const MacroStats st = layer.stats();
    for (std::uint64_t v : {st.matvec_calls, st.wordline_pulses,
                            st.wordline_col_drives, st.adc_conversions,
                            st.analog_cycles, st.nominal_macs})
      fnv_fold(h, v);
  }
  return h;
}

// Pinned on x86-64 from the layer code that kept the monolithic macro and
// the array grid as two classes. Portable and -march=native (FMA) builds
// read the same values. The bitsliced noisy reads pin the AVX2 body:
// hosts without AVX2+FMA skip that test.
constexpr std::uint64_t kGoldenReferenceUnbounded = 0xdded47b9812624c4ull;
constexpr std::uint64_t kGoldenReferenceGrid = 0x601b93a0cc941c2cull;
constexpr std::uint64_t kGoldenBitslicedUnbounded = 0x697fa6f3594e7640ull;
constexpr std::uint64_t kGoldenBitslicedGrid = 0xf92a3dbc5d17f787ull;

TEST(CimMacroGolden, ReferenceReadsMatchPinnedHashes) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden hashes are pinned for x86-64 only";
#endif
  EXPECT_EQ(layer_read_hash("reference", 0, 0), kGoldenReferenceUnbounded);
  EXPECT_EQ(layer_read_hash("reference", 64, 48), kGoldenReferenceGrid);
}

TEST(CimMacroGolden, BitslicedReadsMatchPinnedHashes) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden hashes are pinned for x86-64 only";
#endif
  if (!backend("bitsliced").caps().vectorized)
    GTEST_SKIP() << "bitsliced noisy reads are pinned for the AVX2 body";
  EXPECT_EQ(layer_read_hash("bitsliced", 0, 0), kGoldenBitslicedUnbounded);
  EXPECT_EQ(layer_read_hash("bitsliced", 64, 48), kGoldenBitslicedGrid);
}

}  // namespace
}  // namespace cimnav::cimsram
