#include "conformance/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/stat_tolerances.hpp"
#include "core/stats.hpp"

namespace cimnav::cimsram::conformance {
namespace {

using core::Rng;

// splitmix64: deterministic per-case seeds from the case's own coordinates
// (see cases_for), so a case's draws never depend on how the table was
// pruned or ordered.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr double kInputScale = 1.0 / 63.0;  // 6-bit activation grid

std::vector<double> case_weights(const CaseSpec& c) {
  Rng rng = Rng::stream(c.seed, 0xCADu);
  std::vector<double> w(static_cast<std::size_t>(c.geom.n_out) *
                        static_cast<std::size_t>(c.geom.n_in));
  for (auto& v : w) v = rng.normal(0.0, 0.3);
  return w;
}

CimMacroConfig case_config(const CaseSpec& c, std::string_view backend_name) {
  CimMacroConfig cfg;
  cfg.backend = std::string(backend_name);
  cfg.max_rows = c.geom.max_rows;
  cfg.max_cols = c.geom.max_cols;
  switch (c.mode) {
    case NoiseMode::kIdeal:
      break;  // defaults; matvec_ideal ignores the noise model anyway
    case NoiseMode::kAdcOnly:
      cfg.analog_noise = false;
      cfg.adc_bits = 4;  // coarse: quantization is the whole point
      break;
    case NoiseMode::kAnalog:
      cfg.analog_noise = true;
      cfg.adc_bits = 12;  // quantization negligible vs noise
      cfg.noise_coeff = 0.45;
      break;
  }
  return cfg;
}

struct Checker {
  const CaseSpec& c;
  CaseResult result;

  void fail(const std::string& what) {
    if (!result.pass) return;  // first failure wins (it has the repro)
    result.pass = false;
    result.failure = what + " | repro: " + c.repro();
  }

  /// Element-wise bitwise comparison of two output vectors.
  void expect_bitwise(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& label) {
    if (got.size() != want.size()) {
      std::ostringstream os;
      os << label << ": size " << got.size() << " vs " << want.size();
      fail(os.str());
      return;
    }
    for (std::size_t j = 0; j < got.size(); ++j) {
      ++result.checks;
      if (got[j] != want[j]) {
        std::ostringstream os;
        os.precision(17);
        os << label << ": col " << j << " got " << got[j] << " want "
           << want[j];
        fail(os.str());
        return;
      }
    }
  }
};

// ---------------------------------------------------------------- ideal

CaseResult check_ideal(const CaseSpec& c) {
  Checker ck{c, {}};
  const auto test = make_case_macro(c, c.backend);
  const auto ref = make_case_macro(c, "reference");
  // Shard-reduction identity: a grid must produce the monolithic macro's
  // exact bits (scale-last integer reduction).
  std::unique_ptr<CimMacro> mono_ref;
  if (c.geom.sharded()) {
    CaseSpec mono = c;
    mono.geom.max_rows = 0;
    mono.geom.max_cols = 0;
    mono_ref = make_case_macro(mono, "reference");
  }
  std::vector<std::uint8_t> im, om;
  std::vector<double> x;
  for (std::uint64_t s = 0; s < 5 && ck.result.pass; ++s) {
    make_case_input(c, s, x, im, om);
    const std::string at = " sample " + std::to_string(s);
    const auto y = test->matvec_ideal(x, im, om);
    ck.expect_bitwise(y, ref->matvec_ideal(x, im, om), "ideal/single" + at);
    if (mono_ref)
      ck.expect_bitwise(y, mono_ref->matvec_ideal(x, im, om),
                        "ideal/shard-vs-monolithic" + at);
  }
  return ck.result;
}

// ------------------------------------------------------------- ADC-only

CaseResult check_adc(const CaseSpec& c) {
  Checker ck{c, {}};
  const auto test = make_case_macro(c, c.backend);
  const auto ref = make_case_macro(c, "reference");
  std::vector<std::uint8_t> im, om;
  std::vector<double> x;
  for (std::uint64_t s = 0; s < 3 && ck.result.pass; ++s) {
    make_case_input(c, s, x, im, om);
    // Noise is off, so the noisy entry point is deterministic: the rngs
    // differ per macro and must not matter.
    Rng rt(c.seed ^ 0x17), rr(c.seed ^ 0x23), rt2(c.seed ^ 0x31);
    const auto yt = test->matvec(x, im, om, rt);
    ck.expect_bitwise(yt, ref->matvec(x, im, om, rr), "adc/single");
    ck.expect_bitwise(yt, test->matvec(x, im, om, rt2), "adc/determinism");
  }
  return ck.result;
}

// --------------------------------------------------------------- analog

int stat_reps(Tier tier) { return tier == Tier::kFull ? 1200 : 320; }

CaseResult check_analog(const CaseSpec& c) {
  Checker ck{c, {}};
  const auto test = make_case_macro(c, c.backend);
  const auto ref = make_case_macro(c, "reference");
  std::vector<std::uint8_t> im, om;
  std::vector<double> x;
  make_case_input(c, 0, x, im, om);

  // Keyed-stream contract every pooled caller relies on: the same stream
  // reproduces the same bits, and distinct keys decorrelate the noise.
  Rng k0 = Rng::stream(c.seed, 101), k0_again = Rng::stream(c.seed, 101),
      k1 = Rng::stream(c.seed, 202);
  const auto y0 = test->matvec(x, im, om, k0);
  ck.expect_bitwise(test->matvec(x, im, om, k0_again), y0,
                    "analog/stream-repro");
  ++ck.result.checks;
  if (ck.result.pass && test->matvec(x, im, om, k1) == y0)
    ck.fail("analog/stream-distinct: different stream keys produced "
            "identical noisy outputs");
  if (!ck.result.pass) return ck.result;

  if (backend(c.backend).caps().draw_compatible_noise) {
    // Draw-for-draw compatible kernels are held to the strict tier: the
    // same stream must produce the reference's exact bits on the noisy
    // path.
    for (std::uint64_t k = 0; k < 8 && ck.result.pass; ++k) {
      Rng rt = Rng::stream(c.seed ^ 0x55, k);
      Rng rr = Rng::stream(c.seed ^ 0x55, k);
      ck.expect_bitwise(test->matvec(x, im, om, rt),
                        ref->matvec(x, im, om, rr),
                        "analog/draw-compatible sample " + std::to_string(k));
    }
    return ck.result;
  }

  // Statistical tier: `reps` independent single reads per side, each on
  // its own keyed stream.
  const int reps = stat_reps(c.tier);
  std::vector<std::vector<double>> yt(static_cast<std::size_t>(reps)),
      yr(static_cast<std::size_t>(reps));
  for (int k = 0; k < reps; ++k) {
    Rng rt = Rng::stream(c.seed ^ 0x61, static_cast<std::uint64_t>(k));
    Rng rr = Rng::stream(c.seed ^ 0x67, static_cast<std::uint64_t>(k));
    yt[static_cast<std::size_t>(k)] = test->matvec(x, im, om, rt);
    yr[static_cast<std::size_t>(k)] = ref->matvec(x, im, om, rr);
  }

  const int n_out = c.geom.n_out;
  const double ratio_tol =
      std::max(core::tol::kStddevRatioTol,
               core::tol::kStddevRatioSigmas /
                   std::sqrt(2.0 * static_cast<double>(reps)));
  int best_col = -1;
  double best_sd = 0.0;
  for (int j = 0; j < n_out; ++j) {
    if (!om.empty() && !om[static_cast<std::size_t>(j)]) continue;
    core::RunningStats st, sr;
    for (int k = 0; k < reps; ++k) {
      st.add(yt[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)]);
      sr.add(yr[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)]);
    }
    ++ck.result.checks;
    const double se = std::sqrt((st.variance() + sr.variance()) /
                                static_cast<double>(reps));
    const double dm = std::abs(st.mean() - sr.mean());
    if (se < 1e-12) {
      // Degenerate column (fully clamped / zero input): means must agree
      // exactly up to representation noise.
      if (dm > 1e-9 * std::max(1.0, std::abs(sr.mean()))) {
        std::ostringstream os;
        os << "analog/mean(degenerate): col " << j << " " << st.mean()
           << " vs " << sr.mean();
        ck.fail(os.str());
        return ck.result;
      }
      continue;
    }
    if (dm > core::tol::kMeanStdErrFactor * se) {
      std::ostringstream os;
      os << "analog/mean: col " << j << " " << st.mean() << " vs "
         << sr.mean() << " (|d|=" << dm << " > " <<
          core::tol::kMeanStdErrFactor << "*se=" <<
          core::tol::kMeanStdErrFactor * se << ")";
      ck.fail(os.str());
      return ck.result;
    }
    ++ck.result.checks;
    if (sr.stddev() > 0.0) {
      const double ratio = st.stddev() / sr.stddev();
      if (std::abs(ratio - 1.0) > ratio_tol) {
        std::ostringstream os;
        os << "analog/stddev: col " << j << " ratio " << ratio
           << " outside 1 +- " << ratio_tol;
        ck.fail(os.str());
        return ck.result;
      }
      if (sr.stddev() > best_sd) {
        best_sd = sr.stddev();
        best_col = j;
      }
    }
  }

  if (best_col >= 0) {
    // KS-style quantile agreement on the most informative column. The
    // bound is the asymptotic sample-quantile standard error for a
    // normal with the reference's spread: sqrt(q(1-q)) / (pdf(z_q)/sd)
    // / sqrt(reps), combined over the two independent samples.
    std::vector<double> a(static_cast<std::size_t>(reps)),
        b(static_cast<std::size_t>(reps));
    for (int k = 0; k < reps; ++k) {
      a[static_cast<std::size_t>(k)] =
          yt[static_cast<std::size_t>(k)][static_cast<std::size_t>(best_col)];
      b[static_cast<std::size_t>(k)] =
          yr[static_cast<std::size_t>(k)][static_cast<std::size_t>(best_col)];
    }
    constexpr double kQ[] = {0.10, 0.25, 0.50, 0.75, 0.90};
    constexpr double kNormPdf[] = {0.17550, 0.31778, 0.39894, 0.31778,
                                   0.17550};
    for (int i = 0; i < 5; ++i) {
      ++ck.result.checks;
      const double qa = core::quantile(a, kQ[i]);
      const double qb = core::quantile(b, kQ[i]);
      const double se = std::sqrt(kQ[i] * (1.0 - kQ[i])) /
                        (kNormPdf[i] / best_sd) /
                        std::sqrt(static_cast<double>(reps)) *
                        std::sqrt(2.0);
      if (std::abs(qa - qb) > core::tol::kQuantileStdErrFactor * se) {
        std::ostringstream os;
        os << "analog/quantile: col " << best_col << " q=" << kQ[i] << " "
           << qa << " vs " << qb << " (bound "
           << core::tol::kQuantileStdErrFactor * se << ")";
        ck.fail(os.str());
        return ck.result;
      }
    }
  }
  return ck.result;
}

// ---------------------------------------------------------------- delta

bool mono_odd_rows(const CaseGeometry& g);

// Deterministic disjoint flip lists for a delta case: ~20% of rows flip
// on, ~20% flip off, and rows 0 / n_in-1 anchor each side so neither
// list is ever empty (the matvec_delta contract).
void case_delta_rows(const CaseSpec& c, std::uint64_t salt,
                     std::vector<std::size_t>& add,
                     std::vector<std::size_t>& rem) {
  Rng rng = Rng::stream(c.seed, 0xDE17Au + salt);
  add.clear();
  rem.clear();
  add.push_back(0);
  for (std::size_t i = 1; i + 1 < static_cast<std::size_t>(c.geom.n_in);
       ++i) {
    const double u = rng.uniform();
    if (u < 0.2)
      add.push_back(i);
    else if (u < 0.4)
      rem.push_back(i);
  }
  rem.push_back(static_cast<std::size_t>(c.geom.n_in) - 1);
}

CaseResult check_delta(const CaseSpec& c) {
  Checker ck{c, {}};
  const auto test = make_case_macro(c, c.backend);
  const auto ref = make_case_macro(c, "reference");
  std::vector<std::uint8_t> im, om, no_mask;
  std::vector<double> x;
  make_case_input(c, 0, x, im, om);
  EncodedInput enc_t, enc_r;
  test->encode_input(x, enc_t);
  ref->encode_input(x, enc_r);
  std::vector<std::size_t> add, rem;
  case_delta_rows(c, 0, add, rem);

  if (c.mode == NoiseMode::kAdcOnly) {
    // Noise is off, so the differential read is deterministic and its
    // algebraic identities hold bitwise within one backend on every
    // geometry (ties cancel: both sides evaluate the same quantizer on
    // the same counts).
    std::vector<double> ya, yb;
    Rng r1(c.seed ^ 0x91), r2(c.seed ^ 0x93);
    test->matvec_delta(enc_t, add.data(), add.size(), rem.data(),
                       rem.size(), r1, ya);
    test->matvec_delta(enc_t, add.data(), add.size(), rem.data(),
                       rem.size(), r2, yb);
    ck.expect_bitwise(yb, ya, "delta/determinism");

    // Swapping the rails must negate the op exactly: the correlated
    // double sample converts each rail independently.
    Rng r3(c.seed ^ 0x95);
    test->matvec_delta(enc_t, rem.data(), rem.size(), add.data(),
                       add.size(), r3, yb);
    for (auto& v : yb) v = -v;
    ck.expect_bitwise(yb, ya, "delta/antisymmetry");

    // A one-sided op (no removed rows) degenerates to the dense gated
    // read over the flipped rows — same counts, same code lattice.
    Rng r4(c.seed ^ 0x97), r5(c.seed ^ 0x99);
    test->matvec_delta(enc_t, add.data(), add.size(), nullptr, 0, r4, ya);
    std::vector<std::uint64_t> gate(
        static_cast<std::size_t>((c.geom.n_in + 63) / 64), 0);
    for (std::size_t r : add) gate[r >> 6] |= 1ull << (r & 63u);
    test->matvec_encoded(enc_t, gate, no_mask, r5, yb);
    ck.expect_bitwise(ya, yb, "delta/one-sided-vs-dense");

    if (mono_odd_rows(c.geom)) {
      // Tie-free geometry: the deterministic delta read is bitwise
      // cross-backend, like the dense ADC-only tier.
      Rng r6(c.seed ^ 0x9b), r7(c.seed ^ 0x9d);
      test->matvec_delta(enc_t, add.data(), add.size(), rem.data(),
                         rem.size(), r6, ya);
      ref->matvec_delta(enc_r, add.data(), add.size(), rem.data(),
                        rem.size(), r7, yb);
      ck.expect_bitwise(ya, yb, "delta/cross-backend");
    }
    return ck.result;
  }

  // kAnalog. A draw-compatible backend consumes the reference's noise
  // draws, so its noisy differential read must match bitwise.
  if (backend(c.backend).caps().draw_compatible_noise) {
    std::vector<double> ya, yb;
    Rng rt(c.seed ^ 0xA5), rr(c.seed ^ 0xA5);
    test->matvec_delta(enc_t, add.data(), add.size(), rem.data(),
                       rem.size(), rt, ya);
    ref->matvec_delta(enc_r, add.data(), add.size(), rem.data(),
                      rem.size(), rr, yb);
    ck.expect_bitwise(ya, yb, "delta/draw-compatible");
    return ck.result;
  }

  // Statistical tier: the noisy differential read must be
  // distribution-matched against reference — per-column mean and spread
  // over independent keyed repetitions of the same flip lists.
  const int reps = stat_reps(c.tier);
  std::vector<std::vector<double>> yt(static_cast<std::size_t>(reps)),
      yr(static_cast<std::size_t>(reps));
  for (int k = 0; k < reps; ++k) {
    Rng rt = Rng::stream(c.seed ^ 0x61, static_cast<std::uint64_t>(k));
    Rng rr = Rng::stream(c.seed ^ 0x67, static_cast<std::uint64_t>(k));
    test->matvec_delta(enc_t, add.data(), add.size(), rem.data(),
                       rem.size(), rt, yt[static_cast<std::size_t>(k)]);
    ref->matvec_delta(enc_r, add.data(), add.size(), rem.data(),
                      rem.size(), rr, yr[static_cast<std::size_t>(k)]);
  }
  const double ratio_tol =
      std::max(core::tol::kStddevRatioTol,
               core::tol::kStddevRatioSigmas /
                   std::sqrt(2.0 * static_cast<double>(reps)));
  for (int j = 0; j < c.geom.n_out; ++j) {
    core::RunningStats st, sr;
    for (int k = 0; k < reps; ++k) {
      st.add(yt[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)]);
      sr.add(yr[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)]);
    }
    ++ck.result.checks;
    const double se = std::sqrt((st.variance() + sr.variance()) /
                                static_cast<double>(reps));
    const double dm = std::abs(st.mean() - sr.mean());
    if (se < 1e-12) {
      if (dm > 1e-9 * std::max(1.0, std::abs(sr.mean()))) {
        std::ostringstream os;
        os << "delta/mean(degenerate): col " << j << " " << st.mean()
           << " vs " << sr.mean();
        ck.fail(os.str());
        return ck.result;
      }
      continue;
    }
    if (dm > core::tol::kMeanStdErrFactor * se) {
      std::ostringstream os;
      os << "delta/mean: col " << j << " " << st.mean() << " vs "
         << sr.mean() << " (|d|=" << dm << ")";
      ck.fail(os.str());
      return ck.result;
    }
    ++ck.result.checks;
    if (sr.stddev() > 0.0) {
      const double ratio = st.stddev() / sr.stddev();
      if (std::abs(ratio - 1.0) > ratio_tol) {
        std::ostringstream os;
        os << "delta/stddev: col " << j << " ratio " << ratio
           << " outside 1 +- " << ratio_tol;
        ck.fail(os.str());
        return ck.result;
      }
    }
  }
  return ck.result;
}

bool mono_odd_rows(const CaseGeometry& g) {
  return !g.sharded() && (g.n_in % 2) == 1;
}

}  // namespace

// -------------------------------------------------------------- strings

const char* to_string(InputFamily f) {
  switch (f) {
    case InputFamily::kDense: return "dense";
    case InputFamily::kSparse: return "sparse";
    case InputFamily::kExtreme: return "extreme";
    case InputFamily::kBitplaneEdge: return "bitplane";
  }
  return "?";
}

const char* to_string(NoiseMode m) {
  switch (m) {
    case NoiseMode::kIdeal: return "ideal";
    case NoiseMode::kAdcOnly: return "adc";
    case NoiseMode::kAnalog: return "analog";
  }
  return "?";
}

const char* to_string(Dispatch d) {
  switch (d) {
    case Dispatch::kSingle: return "single";
    case Dispatch::kDelta: return "delta";
  }
  return "?";
}

const char* to_string(Tier t) {
  return t == Tier::kFull ? "full" : "quick";
}

namespace {

template <typename E>
E parse_enum(std::string_view v, const std::vector<E>& all,
             const char* what) {
  for (E e : all)
    if (v == to_string(e)) return e;
  throw std::invalid_argument("conformance repro: unknown " +
                              std::string(what) + " '" + std::string(v) +
                              "'");
}

}  // namespace

std::string CaseSpec::repro() const {
  std::ostringstream os;
  os << "backend=" << backend << " geom=" << geom.n_in << "x" << geom.n_out
     << " shard=" << geom.max_rows << "x" << geom.max_cols
     << " family=" << to_string(family) << " mode=" << to_string(mode)
     << " dispatch=" << to_string(dispatch) << " seed=0x" << std::hex
     << seed << std::dec << " tier=" << to_string(tier);
  return os.str();
}

CaseSpec CaseSpec::parse_repro(std::string_view line) {
  CaseSpec c;
  bool have_backend = false, have_geom = false, have_seed = false;
  std::istringstream is{std::string(line)};
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("conformance repro: malformed token '" +
                                  token + "'");
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    auto parse_pair = [&](int& a, int& b) {
      const auto x = val.find('x');
      if (x == std::string::npos)
        throw std::invalid_argument("conformance repro: malformed '" + key +
                                    "' value '" + val + "'");
      a = std::stoi(val.substr(0, x));
      b = std::stoi(val.substr(x + 1));
    };
    if (key == "backend") {
      c.backend = val;
      have_backend = true;
    } else if (key == "geom") {
      parse_pair(c.geom.n_in, c.geom.n_out);
      have_geom = true;
    } else if (key == "shard") {
      parse_pair(c.geom.max_rows, c.geom.max_cols);
    } else if (key == "family") {
      c.family = parse_enum(val, families(), "family");
    } else if (key == "mode") {
      c.mode = parse_enum(
          val,
          std::vector<NoiseMode>{NoiseMode::kIdeal, NoiseMode::kAdcOnly,
                                 NoiseMode::kAnalog},
          "mode");
    } else if (key == "dispatch") {
      c.dispatch = parse_enum(
          val,
          std::vector<Dispatch>{Dispatch::kSingle, Dispatch::kDelta},
          "dispatch");
    } else if (key == "seed") {
      c.seed = std::stoull(val, nullptr, 0);
      have_seed = true;
    } else if (key == "tier") {
      c.tier = parse_enum(val, std::vector<Tier>{Tier::kQuick, Tier::kFull},
                          "tier");
    } else {
      throw std::invalid_argument("conformance repro: unknown key '" + key +
                                  "'");
    }
  }
  CIMNAV_REQUIRE(have_backend && have_geom && have_seed,
                 "conformance repro needs backend=, geom= and seed=");
  return c;
}

// ----------------------------------------------------------- case table

std::vector<InputFamily> families() {
  return {InputFamily::kDense, InputFamily::kSparse, InputFamily::kExtreme,
          InputFamily::kBitplaneEdge};
}

std::vector<CaseGeometry> geometries(Tier tier) {
  // Odd-row monolithic shapes double as the ADC-only bitwise geometries
  // (tie-free, see the header). The two array grids are the harness's
  // standing grid coverage: a 2x2 64x48 grid with ragged tails and a
  // row-split-only 3x1 grid.
  std::vector<CaseGeometry> g = {
      {97, 24, 0, 0},     // monolithic, odd rows, two gate words
      {149, 37, 0, 0},    // monolithic, odd + ragged third word
      {128, 96, 64, 48},  // 2x2 shard grid
      {150, 32, 64, 0},   // 3x1 row shards with a 22-row tail
  };
  if (tier == Tier::kFull) {
    g.push_back({256, 64, 0, 0});     // wide monolithic
    g.push_back({257, 48, 0, 0});     // odd just past four words
    g.push_back({192, 120, 64, 32});  // 3x4 shard grid
    g.push_back({320, 128, 128, 64}); // bigger physical arrays
  }
  return g;
}

std::vector<CaseSpec> cases_for(std::string_view backend_name, Tier tier) {
  std::vector<CaseSpec> out;
  const auto geoms = geometries(tier);
  const auto fams = families();
  auto push = [&](const CaseGeometry& g, InputFamily f, NoiseMode m,
                  Dispatch d) {
    CaseSpec c;
    c.backend = std::string(backend_name);
    c.geom = g;
    c.family = f;
    c.mode = m;
    c.dispatch = d;
    c.tier = tier;
    // Backend and tier stay out of the seed: every backend runs the same
    // draws, and a quick-tier case keeps its seed in the full tier.
    std::uint64_t h = 0;
    for (int v : {g.n_in, g.n_out, g.max_rows, g.max_cols,
                  static_cast<int>(f), static_cast<int>(m),
                  static_cast<int>(d)})
      h = mix(h ^ static_cast<std::uint64_t>(v));
    c.seed = h;
    out.push_back(std::move(c));
  };
  for (const auto& g : geoms) {
    for (InputFamily f : fams) {
      // Ideal path: bitwise everywhere.
      push(g, f, NoiseMode::kIdeal, Dispatch::kSingle);
      // ADC-only: deterministic noisy entry point, cross-backend bitwise
      // — only on tie-free geometries (odd monolithic rows).
      if (mono_odd_rows(g))
        push(g, f, NoiseMode::kAdcOnly, Dispatch::kSingle);
      // Analog: statistical vs reference plus the keyed-stream contract.
      push(g, f, NoiseMode::kAnalog, Dispatch::kSingle);
      // Delta dispatch (differential compute-reuse read): deterministic
      // identities everywhere + cross-backend bitwise on tie-free
      // geometries; noise statistics vs reference on the dense family
      // (the noise model does not see the input family).
      push(g, f, NoiseMode::kAdcOnly, Dispatch::kDelta);
      if (f == InputFamily::kDense)
        push(g, f, NoiseMode::kAnalog, Dispatch::kDelta);
    }
  }
  return out;
}

std::vector<CaseSpec> cases_for(std::string_view backend_name, InputFamily f,
                                Tier tier) {
  auto all = cases_for(backend_name, tier);
  std::vector<CaseSpec> out;
  for (auto& c : all)
    if (c.family == f) out.push_back(std::move(c));
  return out;
}

// ------------------------------------------------------------ generator

void make_case_input(const CaseSpec& c, std::uint64_t sample_id,
                     std::vector<double>& x,
                     std::vector<std::uint8_t>& in_mask,
                     std::vector<std::uint8_t>& out_mask) {
  const int n_in = c.geom.n_in;
  const int n_out = c.geom.n_out;
  Rng rng = Rng::stream(c.seed, 0xF00du + sample_id);
  x.assign(static_cast<std::size_t>(n_in), 0.0);
  in_mask.clear();
  out_mask.clear();
  switch (c.family) {
    case InputFamily::kDense:
      for (auto& v : x) v = rng.uniform();
      break;
    case InputFamily::kSparse: {
      for (auto& v : x) v = rng.uniform() < 0.15 ? rng.uniform() : 0.0;
      in_mask.assign(static_cast<std::size_t>(n_in), 0);
      for (auto& m : in_mask) m = rng.uniform() < 0.7 ? 1 : 0;
      // At least one live row so active_rows never collapses to zero.
      in_mask[0] = 1;
      x[0] = 0.5;
      break;
    }
    case InputFamily::kExtreme: {
      // Clamp-path magnitudes: negatives clamp to code 0, huge values to
      // the top code, denormals round to 0 — every branch of the input
      // quantizer.
      static constexpr double kVals[] = {0.0,  10.0,   -3.0, 1.0,
                                         4e-3, 0.503,  1e-300, 0.999999};
      for (int i = 0; i < n_in; ++i)
        x[static_cast<std::size_t>(i)] =
            kVals[(static_cast<std::uint64_t>(i) + sample_id) % 8];
      break;
    }
    case InputFamily::kBitplaneEdge: {
      // Exact single-plane and all-ones codes on the 6-bit grid, plus
      // column masks touching both ends of the output range.
      static constexpr int kCodes[] = {1, 2, 4, 8, 16, 32, 63, 31, 21, 42};
      for (int i = 0; i < n_in; ++i)
        x[static_cast<std::size_t>(i)] =
            kCodes[(static_cast<std::uint64_t>(i) + sample_id) % 10] *
            kInputScale;
      out_mask.assign(static_cast<std::size_t>(n_out), 1);
      out_mask.front() = 0;
      out_mask.back() = 0;
      for (int j = 0; j < n_out; j += 7)
        out_mask[static_cast<std::size_t>(j)] = 0;
      break;
    }
  }
}

std::unique_ptr<CimMacro> make_case_macro(const CaseSpec& c,
                                          std::string_view backend_name) {
  CIMNAV_REQUIRE(c.geom.n_in > 0 && c.geom.n_out > 0,
                 "conformance case needs a positive geometry");
  return std::make_unique<CimMacro>(case_weights(c), c.geom.n_out,
                                    c.geom.n_in,
                                    case_config(c, backend_name),
                                    kInputScale);
}

// -------------------------------------------------------------- running

CaseResult run_case(const CaseSpec& c) {
  if (c.dispatch == Dispatch::kDelta) return check_delta(c);
  switch (c.mode) {
    case NoiseMode::kIdeal:
      return check_ideal(c);
    case NoiseMode::kAdcOnly:
      return check_adc(c);
    case NoiseMode::kAnalog:
      return check_analog(c);
  }
  throw std::invalid_argument("conformance: unknown noise mode");
}

Tier tier_from_env() {
  const char* v = std::getenv("CIMNAV_CONFORMANCE_TIER");
  return (v != nullptr && std::string_view(v) == "full") ? Tier::kFull
                                                         : Tier::kQuick;
}

}  // namespace cimnav::cimsram::conformance
