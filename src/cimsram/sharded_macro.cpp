#include "cimsram/sharded_macro.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace cimnav::cimsram {
namespace {

MacroWorkspace& tls_workspace() {
  thread_local MacroWorkspace ws;
  return ws;
}

std::vector<int> split_offsets(int total, int bound) {
  std::vector<int> off{0};
  if (bound <= 0 || bound >= total) {
    off.push_back(total);
    return off;
  }
  for (int o = bound; o < total; o += bound) off.push_back(o);
  off.push_back(total);
  return off;
}

}  // namespace

ShardedMacro::ShardedMacro(const std::vector<double>& weights, int n_out,
                           int n_in, const CimMacroConfig& config,
                           double input_scale)
    : config_(config), n_in_(n_in), n_out_(n_out), input_scale_(input_scale),
      inv_input_scale_(1.0 / input_scale) {
  CIMNAV_REQUIRE(n_in > 0 && n_out > 0, "matrix dims must be positive");
  CIMNAV_REQUIRE(weights.size() == static_cast<std::size_t>(n_in) *
                                       static_cast<std::size_t>(n_out),
                 "weight size mismatch");
  // CimMacro's ranges, checked before the shared grid below shifts by
  // weight_bits and divides by its magnitude range.
  CIMNAV_REQUIRE(config.input_bits >= 1 && config.input_bits <= 12,
                 "input bits must be in [1, 12]");
  CIMNAV_REQUIRE(config.weight_bits >= 2 && config.weight_bits <= 12,
                 "weight bits must be in [2, 12]");
  CIMNAV_REQUIRE(config.adc_bits >= 1 && config.adc_bits <= 16,
                 "adc bits must be in [1, 16]");
  CIMNAV_REQUIRE(input_scale > 0.0, "input scale must be positive");
  CIMNAV_REQUIRE(config.max_rows == 0 || config.max_rows % 64 == 0,
                 "shard row bound must be a multiple of 64 (word-aligned "
                 "encoding/gate slices)");
  CIMNAV_REQUIRE(config.max_cols >= 0, "shard column bound must be >= 0");
  words_ = (n_in + 63) / 64;
  row_off_ = split_offsets(n_in, config.max_rows);
  col_off_ = split_offsets(n_out, config.max_cols);

  // The logical tensor's symmetric quantization grid, forced onto every
  // shard so partial sums share one integer lattice.
  const int mag_max = (1 << (config.weight_bits - 1)) - 1;
  double w_max = 0.0;
  for (double w : weights) w_max = std::max(w_max, std::abs(w));
  weight_scale_ = w_max > 0.0 ? w_max / static_cast<double>(mag_max) : 1.0;

  const int rr = grid_rows(), cc = grid_cols();
  shards_.reserve(static_cast<std::size_t>(rr) * static_cast<std::size_t>(cc));
  std::vector<double> slice;
  for (int r = 0; r < rr; ++r) {
    for (int c = 0; c < cc; ++c) {
      const int r0 = row_off_[static_cast<std::size_t>(r)];
      const int r1 = row_off_[static_cast<std::size_t>(r) + 1];
      const int c0 = col_off_[static_cast<std::size_t>(c)];
      const int c1 = col_off_[static_cast<std::size_t>(c) + 1];
      slice.clear();
      slice.reserve(static_cast<std::size_t>(c1 - c0) *
                    static_cast<std::size_t>(r1 - r0));
      for (int j = c0; j < c1; ++j)
        for (int i = r0; i < r1; ++i)
          slice.push_back(weights[static_cast<std::size_t>(j) *
                                      static_cast<std::size_t>(n_in) +
                                  static_cast<std::size_t>(i)]);
      shards_.emplace_back(slice, c1 - c0, r1 - r0, config, input_scale,
                           weight_scale_);
    }
  }
}

const CimMacro& ShardedMacro::shard(int r, int c) const {
  CIMNAV_REQUIRE(r >= 0 && r < grid_rows() && c >= 0 && c < grid_cols(),
                 "shard index out of range");
  return shards_[static_cast<std::size_t>(r) *
                     static_cast<std::size_t>(grid_cols()) +
                 static_cast<std::size_t>(c)];
}

void ShardedMacro::encode_input(const std::vector<double>& x,
                                EncodedInput& enc) const {
  encode_input_planes(x, n_in_, config_.input_bits, inv_input_scale_, enc);
}

void ShardedMacro::run_all(const EncodedInput& enc,
                           const std::vector<std::uint64_t>& row_gate,
                           const std::vector<std::uint8_t>& out_mask,
                           bool ideal, core::Rng* rng,
                           std::vector<double>& y) const {
  CIMNAV_REQUIRE(row_gate.size() == static_cast<std::size_t>(words_),
                 "row gate word count mismatch");
  CIMNAV_REQUIRE(enc.planes.size() ==
                     static_cast<std::size_t>(config_.input_bits) *
                         static_cast<std::size_t>(words_),
                 "encoded input shape mismatch");
  CIMNAV_REQUIRE(out_mask.empty() ||
                     out_mask.size() == static_cast<std::size_t>(n_out_),
                 "output mask size mismatch");
  const std::uint8_t* mask = out_mask.empty() ? nullptr : out_mask.data();
  const std::size_t stride = static_cast<std::size_t>(words_);

  thread_local std::vector<double> acc, partial;
  acc.assign(static_cast<std::size_t>(n_out_), 0.0);
  MacroWorkspace& ws = tls_workspace();
  // Fixed (r, c) order: the row-shard reduction order defines the result.
  for (int r = 0; r < grid_rows(); ++r) {
    const std::size_t word_off =
        static_cast<std::size_t>(row_off_[static_cast<std::size_t>(r)] / 64);
    for (int c = 0; c < grid_cols(); ++c) {
      const int c0 = col_off_[static_cast<std::size_t>(c)];
      const CimMacro& s = shard(r, c);
      partial.resize(static_cast<std::size_t>(s.n_out()));
      s.run_view(enc.planes.data() + word_off, stride,
                 row_gate.data() + word_off,
                 mask == nullptr ? nullptr : mask + c0, ideal,
                 /*unit_scale=*/true, rng, ws, partial.data());
      for (int j = 0; j < s.n_out(); ++j)
        acc[static_cast<std::size_t>(c0 + j)] += partial[static_cast<std::size_t>(j)];
    }
  }
  y.resize(static_cast<std::size_t>(n_out_));
  for (int j = 0; j < n_out_; ++j) {
    if (mask != nullptr && !mask[j]) {
      y[static_cast<std::size_t>(j)] = 0.0;
      continue;
    }
    // Same rounding order as the monolithic kernel: (acc * ws) * is.
    y[static_cast<std::size_t>(j)] =
        acc[static_cast<std::size_t>(j)] * weight_scale_ * input_scale_;
  }
}

void ShardedMacro::matvec_encoded(const EncodedInput& enc,
                                  const std::vector<std::uint64_t>& row_gate,
                                  const std::vector<std::uint8_t>& out_mask,
                                  core::Rng& rng,
                                  std::vector<double>& y) const {
  run_all(enc, row_gate, out_mask, /*ideal=*/false, &rng, y);
}

std::vector<double> ShardedMacro::matvec(
    const std::vector<double>& x, const std::vector<std::uint8_t>& in_mask,
    const std::vector<std::uint8_t>& out_mask, core::Rng& rng) const {
  CIMNAV_REQUIRE(in_mask.empty() ||
                     in_mask.size() == static_cast<std::size_t>(n_in_),
                 "input mask size mismatch");
  MacroWorkspace& ws = tls_workspace();
  encode_input(x, ws.enc);
  pack_row_mask(in_mask, n_in_, ws.gate);
  std::vector<double> y;
  run_all(ws.enc, ws.gate, out_mask, /*ideal=*/false, &rng, y);
  return y;
}

void ShardedMacro::matvec_delta(const EncodedInput& enc,
                                const std::size_t* add_rows,
                                std::size_t n_add,
                                const std::size_t* rem_rows,
                                std::size_t n_rem, core::Rng& rng,
                                std::vector<double>& y) const {
  CIMNAV_REQUIRE(n_add + n_rem > 0,
                 "delta read needs at least one changed row");
  CIMNAV_REQUIRE(enc.planes.size() ==
                     static_cast<std::size_t>(config_.input_bits) *
                         static_cast<std::size_t>(words_),
                 "encoded input shape mismatch");
  MacroWorkspace& ws = tls_workspace();
  const std::size_t words = static_cast<std::size_t>(words_);
  const auto pack = [&](std::vector<std::uint64_t>& gate,
                        const std::size_t* rows, std::size_t n) {
    gate.assign(words, 0);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = rows[k];
      CIMNAV_REQUIRE(i < static_cast<std::size_t>(n_in_), "row out of range");
      gate[i / 64] |= (std::uint64_t{1} << (i % 64));
    }
  };
  pack(ws.gate, add_rows, n_add);
  pack(ws.gate_rem, rem_rows, n_rem);
  const std::uint64_t root = rng();

  const std::size_t rr = static_cast<std::size_t>(grid_rows());
  const std::size_t cc = static_cast<std::size_t>(grid_cols());
  thread_local std::vector<double> acc, partial;
  acc.assign(static_cast<std::size_t>(n_out_), 0.0);
  for (std::size_t r = 0; r < rr; ++r) {
    const std::size_t word_off = static_cast<std::size_t>(row_off_[r] / 64);
    const int shard_words = shards_[r * cc].gate_words();
    // Shard-local union touched-word list (indices relative to the slice).
    ws.word_list.clear();
    std::uint64_t add_any = 0, rem_any = 0;
    for (int w = 0; w < shard_words; ++w) {
      const std::size_t gw = word_off + static_cast<std::size_t>(w);
      add_any |= ws.gate[gw];
      rem_any |= ws.gate_rem[gw];
      if ((ws.gate[gw] | ws.gate_rem[gw]) != 0) ws.word_list.push_back(w);
    }
    // No changed row lands in this row shard: no word line fires, so the
    // shard is never activated (its partial is exactly zero).
    if (ws.word_list.empty()) continue;
    for (std::size_t c = 0; c < cc; ++c) {
      const std::size_t shard_idx = r * cc + c;
      const CimMacro& s = shards_[shard_idx];
      core::Rng shard_rng = core::Rng::stream(root, shard_idx);
      partial.resize(static_cast<std::size_t>(s.n_out()));
      s.run_view_delta(enc.planes.data() + word_off, words,
                       add_any != 0 ? ws.gate.data() + word_off : nullptr,
                       rem_any != 0 ? ws.gate_rem.data() + word_off : nullptr,
                       ws.word_list.data(),
                       static_cast<int>(ws.word_list.size()), nullptr,
                       /*ideal=*/false, /*unit_scale=*/true, &shard_rng, ws,
                       partial.data());
      const int c0 = col_off_[c];
      for (int j = 0; j < s.n_out(); ++j)
        acc[static_cast<std::size_t>(c0 + j)] +=
            partial[static_cast<std::size_t>(j)];
    }
  }
  y.resize(static_cast<std::size_t>(n_out_));
  for (int j = 0; j < n_out_; ++j)
    y[static_cast<std::size_t>(j)] =
        acc[static_cast<std::size_t>(j)] * weight_scale_ * input_scale_;
}

std::vector<double> ShardedMacro::matvec_ideal(
    const std::vector<double>& x, const std::vector<std::uint8_t>& in_mask,
    const std::vector<std::uint8_t>& out_mask) const {
  CIMNAV_REQUIRE(in_mask.empty() ||
                     in_mask.size() == static_cast<std::size_t>(n_in_),
                 "input mask size mismatch");
  MacroWorkspace& ws = tls_workspace();
  encode_input(x, ws.enc);
  pack_row_mask(in_mask, n_in_, ws.gate);
  std::vector<double> y;
  run_all(ws.enc, ws.gate, out_mask, /*ideal=*/true, nullptr, y);
  return y;
}

MacroStats ShardedMacro::stats() const {
  MacroStats total;
  for (const CimMacro& s : shards_) total += s.stats();
  return total;
}

void ShardedMacro::reset_stats() const {
  for (const CimMacro& s : shards_) s.reset_stats();
}

std::unique_ptr<MacroLike> make_macro(const std::vector<double>& weights,
                                      int n_out, int n_in,
                                      const CimMacroConfig& config,
                                      double input_scale) {
  const bool row_split = config.max_rows > 0 && n_in > config.max_rows;
  const bool col_split = config.max_cols > 0 && n_out > config.max_cols;
  if (row_split || col_split)
    return std::make_unique<ShardedMacro>(weights, n_out, n_in, config,
                                          input_scale);
  return std::make_unique<CimMacro>(weights, n_out, n_in, config,
                                    input_scale);
}

}  // namespace cimnav::cimsram
