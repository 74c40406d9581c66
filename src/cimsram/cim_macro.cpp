#include "cimsram/cim_macro.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/error.hpp"

namespace cimnav::cimsram {
namespace {

// Per-thread scratch for the zero-allocation read path. Every buffer
// grows to the largest layer it has served and then stays put.
struct Workspace {
  EncodedInput enc;                      // wrapper APIs' encoding
  std::vector<std::uint64_t> gate;       // packed row gate (add side)
  std::vector<std::uint64_t> gate_rem;   // packed remove-side gate (delta)
  std::vector<std::uint64_t> gated;      // planes & gate, per array
  std::vector<std::uint64_t> gated_rem;  // planes & remove gate (delta)
  std::vector<std::int32_t> word_list;   // touched words of a row block
  std::vector<double> acc;               // grid reduction, per column
  std::vector<double> partial;           // one array's unit-scale outputs
};

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

// Block offsets of `total` rows or columns under `bound` (0 = unbounded).
std::vector<int> split_offsets(int total, int bound) {
  std::vector<int> off{0};
  if (bound > 0)
    for (int o = bound; o < total; o += bound) off.push_back(o);
  off.push_back(total);
  return off;
}

}  // namespace

thread_local MacroStats* ScopedStatsCapture::active_sink_ = nullptr;

ScopedStatsCapture::ScopedStatsCapture(MacroStats* sink)
    : prev_(active_sink_) {
  active_sink_ = sink;
}

ScopedStatsCapture::~ScopedStatsCapture() { active_sink_ = prev_; }

MacroStats* ScopedStatsCapture::active_sink() { return active_sink_; }

MacroStats& MacroStats::operator+=(const MacroStats& o) {
  matvec_calls += o.matvec_calls;
  wordline_pulses += o.wordline_pulses;
  wordline_col_drives += o.wordline_col_drives;
  adc_conversions += o.adc_conversions;
  analog_cycles += o.analog_cycles;
  nominal_macs += o.nominal_macs;
  return *this;
}

MacroStats& MacroStats::operator-=(const MacroStats& o) {
  matvec_calls -= o.matvec_calls;
  wordline_pulses -= o.wordline_pulses;
  wordline_col_drives -= o.wordline_col_drives;
  adc_conversions -= o.adc_conversions;
  analog_cycles -= o.analog_cycles;
  nominal_macs -= o.nominal_macs;
  return *this;
}

void pack_row_mask(const std::vector<std::uint8_t>& mask, int n_rows,
                   std::vector<std::uint64_t>& gate) {
  CIMNAV_REQUIRE(mask.empty() ||
                     mask.size() == static_cast<std::size_t>(n_rows),
                 "row mask size mismatch");
  const std::size_t words = static_cast<std::size_t>((n_rows + 63) / 64);
  if (mask.empty()) {
    gate.assign(words, ~std::uint64_t{0});
    if (n_rows % 64 != 0) gate[words - 1] = (std::uint64_t{1} << (n_rows % 64)) - 1;
    return;
  }
  gate.resize(words);
  // Branchless bit packing: random dropout masks mispredict a per-bit
  // branch half the time, which dominated this loop.
  for (std::size_t w = 0; w < words; ++w) {
    const int i0 = static_cast<int>(w) * 64;
    const int i1 = std::min(i0 + 64, n_rows);
    std::uint64_t g = 0;
    for (int i = i0; i < i1; ++i)
      g |= static_cast<std::uint64_t>(mask[static_cast<std::size_t>(i)] != 0)
           << (i - i0);
    gate[w] = g;
  }
}

CimMacro::CimMacro(const std::vector<double>& weights, int n_out, int n_in,
                   const CimMacroConfig& config, double input_scale)
    : config_(config), backend_(&backend(config.backend)), n_in_(n_in),
      n_out_(n_out), input_scale_(input_scale),
      inv_input_scale_(1.0 / input_scale) {
  CIMNAV_REQUIRE(n_in > 0 && n_out > 0, "matrix dims must be positive");
  CIMNAV_REQUIRE(weights.size() == static_cast<std::size_t>(n_in) *
                                       static_cast<std::size_t>(n_out),
                 "weight size mismatch");
  CIMNAV_REQUIRE(config.input_bits >= 1 && config.input_bits <= 12,
                 "input bits must be in [1, 12]");
  CIMNAV_REQUIRE(config.weight_bits >= 2 && config.weight_bits <= 12,
                 "weight bits must be in [2, 12]");
  CIMNAV_REQUIRE(config.adc_bits >= 1 && config.adc_bits <= 16,
                 "adc bits must be in [1, 16]");
  CIMNAV_REQUIRE(input_scale > 0.0, "input scale must be positive");
  CIMNAV_REQUIRE(config.max_rows == 0 || config.max_rows % 64 == 0,
                 "array row bound must be a multiple of 64 (word-aligned "
                 "encoding/gate slices)");
  CIMNAV_REQUIRE(config.max_cols >= 0, "array column bound must be >= 0");

  // Per-tensor symmetric weight quantization: one grid for every array,
  // so their partial sums share one integer lattice.
  const int mag_max = (1 << (config.weight_bits - 1)) - 1;
  double w_max = 0.0;
  for (double w : weights) {
    // An infinite weight would make the scale infinite (every other
    // weight quantizing to 0); a NaN one would slip past std::max.
    CIMNAV_REQUIRE(std::isfinite(w), "weights must be finite");
    w_max = std::max(w_max, std::abs(w));
  }
  weight_scale_ = w_max > 0.0 ? w_max / static_cast<double>(mag_max) : 1.0;

  words_ = (n_in + 63) / 64;
  planes_ = config.weight_bits - 1;
  row_off_ = split_offsets(n_in, config.max_rows);
  col_off_ = split_offsets(n_out, config.max_cols);
  const std::size_t planes = static_cast<std::size_t>(planes_);
  arrays_.reserve(static_cast<std::size_t>(grid_rows()) *
                  static_cast<std::size_t>(grid_cols()));
  for (int r = 0; r < grid_rows(); ++r) {
    for (int c = 0; c < grid_cols(); ++c) {
      const int r0 = row_off_[static_cast<std::size_t>(r)];
      const int c0 = col_off_[static_cast<std::size_t>(c)];
      Array a;
      a.word0 = r0 / 64;
      a.col0 = c0;
      a.n_in = row_off_[static_cast<std::size_t>(r) + 1] - r0;
      a.n_out = col_off_[static_cast<std::size_t>(c) + 1] - c0;
      a.words = (a.n_in + 63) / 64;
      const std::size_t words = static_cast<std::size_t>(a.words);
      a.bits.assign(static_cast<std::size_t>(a.n_out) * 2u * planes * words,
                    0);
      for (int j = 0; j < a.n_out; ++j) {
        for (int i = 0; i < a.n_in; ++i) {
          const double w =
              weights[static_cast<std::size_t>(c0 + j) *
                          static_cast<std::size_t>(n_in) +
                      static_cast<std::size_t>(r0 + i)];
          int q = static_cast<int>(std::lround(w / weight_scale_));
          q = std::clamp(q, -mag_max, mag_max);
          const int mag = std::abs(q);
          const std::size_t sign = q >= 0 ? 0u : 1u;
          for (int p = 0; p < planes_; ++p) {
            if ((mag >> p) & 1) {
              const std::size_t idx =
                  ((static_cast<std::size_t>(j) * 2u + sign) * planes +
                   static_cast<std::size_t>(p)) *
                      words +
                  static_cast<std::size_t>(i / 64);
              a.bits[idx] |= (std::uint64_t{1} << (i % 64));
            }
          }
        }
      }
      arrays_.push_back(std::move(a));
    }
  }
}

void CimMacro::encode_input(const std::vector<double>& x,
                            EncodedInput& enc) const {
  CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(n_in_),
                 "input size mismatch");
  const int input_bits = config_.input_bits;
  const std::size_t stride = static_cast<std::size_t>(words_);
  const double max_code = static_cast<double>((1 << input_bits) - 1);
  enc.planes.assign(static_cast<std::size_t>(input_bits) * stride, 0);
  // Word-at-a-time: accumulate the word's bit planes in registers, store
  // once per plane (the per-bit read-modify-write of the naive loop is
  // measurable in the MC hot path).
  for (int w = 0; w < words_; ++w) {
    std::uint64_t acc[12] = {};
    const int i0 = w * 64;
    const int i1 = std::min(i0 + 64, n_in_);
    for (int i = i0; i < i1; ++i) {
      // Clamp in double, then truncate: (x / s + 0.5) truncated equals
      // lround(x / s) on [0, max], and inlines where lround would not.
      // The argument order sends NaN to 0 (both comparisons are false),
      // and no value reaches the integer conversion out of range.
      const double t =
          x[static_cast<std::size_t>(i)] * inv_input_scale_ + 0.5;
      const auto q = static_cast<std::uint32_t>(
          std::min(std::max(0.0, t), max_code));
      // Branchless scatter: data-dependent skips mispredict on real
      // activations; input_bits unconditional ORs are cheaper.
      for (int b = 0; b < input_bits; ++b)
        acc[b] |= static_cast<std::uint64_t>((q >> b) & 1u) << (i - i0);
    }
    for (int b = 0; b < input_bits; ++b)
      enc.planes[static_cast<std::size_t>(b) * stride +
                 static_cast<std::size_t>(w)] = acc[b];
  }
}

void CimMacro::account(const MacroStats& s) const {
  stat_calls_.fetch_add(s.matvec_calls, std::memory_order_relaxed);
  stat_cycles_.fetch_add(s.analog_cycles, std::memory_order_relaxed);
  stat_wordline_.fetch_add(s.wordline_pulses, std::memory_order_relaxed);
  stat_wl_cols_.fetch_add(s.wordline_col_drives, std::memory_order_relaxed);
  stat_adc_.fetch_add(s.adc_conversions, std::memory_order_relaxed);
  stat_macs_.fetch_add(s.nominal_macs, std::memory_order_relaxed);
  // Mirror the exact same quantities into the thread's capture sink (if
  // any) so per-scope captures sum back to the lifetime-counter delta
  // without a second accounting model to keep in sync.
  if (MacroStats* sink = ScopedStatsCapture::active_sink()) *sink += s;
}

MacroStats CimMacro::stats() const {
  MacroStats s;
  s.matvec_calls = stat_calls_.load(std::memory_order_relaxed);
  s.wordline_pulses = stat_wordline_.load(std::memory_order_relaxed);
  s.wordline_col_drives = stat_wl_cols_.load(std::memory_order_relaxed);
  s.adc_conversions = stat_adc_.load(std::memory_order_relaxed);
  s.analog_cycles = stat_cycles_.load(std::memory_order_relaxed);
  s.nominal_macs = stat_macs_.load(std::memory_order_relaxed);
  return s;
}

void CimMacro::reset_stats() const {
  stat_calls_.store(0, std::memory_order_relaxed);
  stat_wordline_.store(0, std::memory_order_relaxed);
  stat_wl_cols_.store(0, std::memory_order_relaxed);
  stat_adc_.store(0, std::memory_order_relaxed);
  stat_cycles_.store(0, std::memory_order_relaxed);
  stat_macs_.store(0, std::memory_order_relaxed);
}

void CimMacro::run_view(const Array& a, const std::uint64_t* planes,
                        const std::uint64_t* gate_add,
                        const std::uint64_t* gate_rem,
                        const std::int32_t* word_list, int n_words,
                        const std::uint8_t* out_mask, bool ideal,
                        bool unit_scale, core::Rng* rng, double* y,
                        MacroStats& acct) const {
  Workspace& ws = tls_workspace();
  const std::size_t words = static_cast<std::size_t>(a.words);
  const std::size_t stride = static_cast<std::size_t>(words_);
  const std::size_t gated_size =
      static_cast<std::size_t>(config_.input_bits) * words;
  std::uint64_t active_rows = 0;
  // Gates the array's slice of the encoding: every word on a dense read.
  // A delta read gates only the listed words and clears the rest, since
  // the backend contract requires every unlisted word to be zero across
  // all planes (input_bits x words u64s — trivial next to the scan).
  const auto gate_planes = [&](const std::uint64_t* gate,
                               std::vector<std::uint64_t>& out)
      -> const std::uint64_t* {
    if (gate == nullptr) return nullptr;
    if (word_list == nullptr) {
      out.resize(gated_size);
      for (int b = 0; b < config_.input_bits; ++b) {
        const std::uint64_t* src = planes + static_cast<std::size_t>(b) *
                                                stride;
        std::uint64_t* dst = out.data() + static_cast<std::size_t>(b) *
                                              words;
        for (std::size_t w = 0; w < words; ++w) dst[w] = src[w] & gate[w];
      }
      for (std::size_t w = 0; w < words; ++w)
        active_rows += static_cast<std::uint64_t>(std::popcount(gate[w]));
    } else {
      out.assign(gated_size, 0);
      for (int k = 0; k < n_words; ++k) {
        const std::size_t w = static_cast<std::size_t>(word_list[k]);
        const std::uint64_t g = gate[w];
        active_rows += static_cast<std::uint64_t>(std::popcount(g));
        for (int b = 0; b < config_.input_bits; ++b)
          out[static_cast<std::size_t>(b) * words + w] =
              planes[static_cast<std::size_t>(b) * stride + w] & g;
      }
    }
    return out.data();
  };
  const std::uint64_t* gated_add = gate_planes(gate_add, ws.gated);
  const std::uint64_t* gated_rem = gate_planes(gate_rem, ws.gated_rem);

  MacroView v;
  v.weight_bits = a.bits.data();
  v.n_in = a.n_in;
  v.n_out = a.n_out;
  v.words = a.words;
  v.planes = planes_;
  v.input_bits = config_.input_bits;
  v.adc_bits = config_.adc_bits;
  v.analog_noise = config_.analog_noise;
  v.noise_coeff = config_.noise_coeff;
  v.weight_scale = unit_scale ? 1.0 : weight_scale_;
  v.input_scale = unit_scale ? 1.0 : input_scale_;
  backend_->run_columns(v, gated_add, gated_rem, word_list, n_words,
                        active_rows, out_mask, ideal, rng, y);

  std::uint64_t active_cols = static_cast<std::uint64_t>(a.n_out);
  if (out_mask != nullptr) {
    active_cols = 0;
    for (int j = 0; j < a.n_out; ++j) active_cols += out_mask[j] ? 1 : 0;
  }
  const std::uint64_t cycles = static_cast<std::uint64_t>(planes_) *
                               static_cast<std::uint64_t>(config_.input_bits) *
                               2u;
  acct.matvec_calls += 1;
  acct.analog_cycles += cycles;
  acct.wordline_pulses += active_rows * cycles;
  // Every pulse drives the full physical array width (masked columns
  // still load the wire), so the span scales with the array's n_out.
  acct.wordline_col_drives +=
      active_rows * cycles * static_cast<std::uint64_t>(a.n_out);
  acct.adc_conversions += active_cols * cycles;
  acct.nominal_macs += active_rows * active_cols;
}

void CimMacro::read(const EncodedInput& enc, const std::uint64_t* gate_add,
                    const std::uint64_t* gate_rem,
                    const std::uint8_t* out_mask, bool ideal, core::Rng* rng,
                    std::vector<double>& y) const {
  Workspace& ws = tls_workspace();
  const bool delta = gate_rem != nullptr;
  // One row block writes scaled outputs in place; several reduce
  // unit-scale partials first (fixed row-block order defines the sum).
  const bool direct = grid_rows() == 1;
  const bool keyed = delta && arrays_.size() > 1;
  const std::uint64_t root = keyed ? (*rng)() : 0;
  const std::size_t cc = static_cast<std::size_t>(grid_cols());
  y.resize(static_cast<std::size_t>(n_out_));
  if (!direct) ws.acc.assign(static_cast<std::size_t>(n_out_), 0.0);
  MacroStats acct;
  for (std::size_t r = 0; r < static_cast<std::size_t>(grid_rows()); ++r) {
    const Array& row = arrays_[r * cc];
    const std::size_t w0 = static_cast<std::size_t>(row.word0);
    const std::uint64_t* add = gate_add + w0;
    const std::uint64_t* rem = nullptr;
    const std::int32_t* word_list = nullptr;
    int n_words = 0;
    if (delta) {
      // The row block's touched words (relative to its slice); either
      // side's gate is dropped when it has no flip here.
      ws.word_list.clear();
      std::uint64_t add_any = 0, rem_any = 0;
      for (int w = 0; w < row.words; ++w) {
        const std::size_t gw = w0 + static_cast<std::size_t>(w);
        add_any |= gate_add[gw];
        rem_any |= gate_rem[gw];
        if ((gate_add[gw] | gate_rem[gw]) != 0) ws.word_list.push_back(w);
      }
      // No changed row lands in this row block: no word line fires, so
      // its arrays are never activated (their partials are exactly zero).
      if (ws.word_list.empty()) continue;
      add = add_any != 0 ? add : nullptr;
      rem = rem_any != 0 ? gate_rem + w0 : nullptr;
      word_list = ws.word_list.data();
      n_words = static_cast<int>(ws.word_list.size());
    }
    for (std::size_t c = 0; c < cc; ++c) {
      const std::size_t k = r * cc + c;
      const Array& a = arrays_[k];
      const std::uint8_t* mask =
          out_mask == nullptr ? nullptr : out_mask + a.col0;
      double* out = y.data() + a.col0;
      if (!direct) {
        ws.partial.resize(static_cast<std::size_t>(a.n_out));
        out = ws.partial.data();
      }
      const auto run = [&](core::Rng* array_rng) {
        run_view(a, enc.planes.data() + w0, add, rem, word_list, n_words,
                 mask, ideal, !direct, array_rng, out, acct);
      };
      if (keyed) {
        core::Rng array_rng = core::Rng::stream(root, k);
        run(&array_rng);
      } else {
        run(rng);
      }
      if (!direct)
        for (int j = 0; j < a.n_out; ++j)
          ws.acc[static_cast<std::size_t>(a.col0 + j)] +=
              ws.partial[static_cast<std::size_t>(j)];
    }
  }
  if (!direct) {
    for (std::size_t j = 0; j < static_cast<std::size_t>(n_out_); ++j)
      // Same rounding order as the one-block kernel: (acc * ws) * is.
      y[j] = out_mask != nullptr && !out_mask[j]
                 ? 0.0
                 : ws.acc[j] * weight_scale_ * input_scale_;
  }
  account(acct);
}

void CimMacro::check_encoding(const EncodedInput& enc) const {
  CIMNAV_REQUIRE(enc.planes.size() ==
                     static_cast<std::size_t>(config_.input_bits) *
                         static_cast<std::size_t>(words_),
                 "encoded input shape mismatch");
}

void CimMacro::matvec_delta(const EncodedInput& enc,
                            const std::size_t* add_rows, std::size_t n_add,
                            const std::size_t* rem_rows, std::size_t n_rem,
                            core::Rng& rng, std::vector<double>& y) const {
  CIMNAV_REQUIRE(n_add + n_rem > 0,
                 "delta read needs at least one changed row");
  check_encoding(enc);
  Workspace& ws = tls_workspace();
  const auto pack = [&](std::vector<std::uint64_t>& gate,
                        const std::size_t* rows, std::size_t n) {
    gate.assign(static_cast<std::size_t>(words_), 0);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = rows[k];
      CIMNAV_REQUIRE(i < static_cast<std::size_t>(n_in_), "row out of range");
      gate[i / 64] |= (std::uint64_t{1} << (i % 64));
    }
  };
  pack(ws.gate, add_rows, n_add);
  pack(ws.gate_rem, rem_rows, n_rem);
  read(enc, ws.gate.data(), ws.gate_rem.data(), nullptr, /*ideal=*/false,
       &rng, y);
}

void CimMacro::matvec_encoded(const EncodedInput& enc,
                              const std::vector<std::uint64_t>& row_gate,
                              const std::vector<std::uint8_t>& out_mask,
                              core::Rng& rng, std::vector<double>& y) const {
  CIMNAV_REQUIRE(row_gate.size() == static_cast<std::size_t>(words_),
                 "row gate word count mismatch");
  check_encoding(enc);
  CIMNAV_REQUIRE(out_mask.empty() ||
                     out_mask.size() == static_cast<std::size_t>(n_out_),
                 "output mask size mismatch");
  read(enc, row_gate.data(), nullptr,
       out_mask.empty() ? nullptr : out_mask.data(), /*ideal=*/false, &rng,
       y);
}

std::vector<double> CimMacro::matvec(const std::vector<double>& x,
                                     const std::vector<std::uint8_t>& in_mask,
                                     const std::vector<std::uint8_t>& out_mask,
                                     core::Rng& rng) const {
  Workspace& ws = tls_workspace();
  encode_input(x, ws.enc);
  pack_row_mask(in_mask, n_in_, ws.gate);
  std::vector<double> y;
  matvec_encoded(ws.enc, ws.gate, out_mask, rng, y);
  return y;
}

std::vector<double> CimMacro::matvec_ideal(
    const std::vector<double>& x, const std::vector<std::uint8_t>& in_mask,
    const std::vector<std::uint8_t>& out_mask) const {
  CIMNAV_REQUIRE(out_mask.empty() ||
                     out_mask.size() == static_cast<std::size_t>(n_out_),
                 "output mask size mismatch");
  Workspace& ws = tls_workspace();
  encode_input(x, ws.enc);
  pack_row_mask(in_mask, n_in_, ws.gate);
  std::vector<double> y;
  read(ws.enc, ws.gate.data(), nullptr,
       out_mask.empty() ? nullptr : out_mask.data(), /*ideal=*/true,
       nullptr, y);
  return y;
}

}  // namespace cimnav::cimsram
