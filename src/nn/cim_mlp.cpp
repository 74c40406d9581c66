#include "nn/cim_mlp.hpp"

#include <algorithm>
#include <cmath>

namespace cimnav::nn {
namespace {

constexpr double kScaleHeadroom = 1.05;  // 5% margin on calibrated maxima

}  // namespace

CimMlp::CimMlp(const Mlp& reference,
               const cimsram::CimMacroConfig& macro_config,
               const std::vector<Vector>& calibration_inputs,
               core::Rng& rng) {
  CIMNAV_REQUIRE(!calibration_inputs.empty(), "need calibration inputs");
  const MlpConfig& cfg = reference.config();
  keep_scale_ = 1.0 / (1.0 - cfg.dropout_p);
  dropout_on_input_ = cfg.dropout_on_input;

  const int n_layers = reference.layer_count();
  // Calibrate per-layer input maxima under representative dropout masks
  // (masked activations are inflated by the keep scale, so deterministic
  // calibration would underestimate the range).
  std::vector<double> act_max(static_cast<std::size_t>(n_layers), 1e-12);
  constexpr int kMaskSamples = 8;
  for (const auto& x : calibration_inputs) {
    for (int s = 0; s < kMaskSamples; ++s) {
      auto masks = reference.sample_masks(
          [&] { return rng.bernoulli(cfg.dropout_p); });
      // Replicate the masked forward, recording layer-input maxima.
      std::size_t site = 0;
      Vector a = x;
      if (cfg.dropout_on_input) {
        const Mask& m = masks[site++];
        for (std::size_t i = 0; i < a.size(); ++i)
          a[i] = m[i] ? a[i] * keep_scale_ : 0.0;
      }
      for (int l = 0; l < n_layers; ++l) {
        for (double v : a)
          act_max[static_cast<std::size_t>(l)] =
              std::max(act_max[static_cast<std::size_t>(l)], std::abs(v));
        Vector z = reference.weights(l).matvec(a);
        const Vector& b = reference.biases(l);
        for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
        if (l + 1 < n_layers) {
          for (double& v : z) v = std::max(0.0, v);
          const Mask& m = masks[site++];
          for (std::size_t i = 0; i < z.size(); ++i)
            z[i] = m[i] ? z[i] * keep_scale_ : 0.0;
        }
        a = std::move(z);
      }
    }
  }

  const int max_code = (1 << macro_config.input_bits) - 1;
  macros_.reserve(static_cast<std::size_t>(n_layers));
  biases_.reserve(static_cast<std::size_t>(n_layers));
  for (int l = 0; l < n_layers; ++l) {
    const Matrix& w = reference.weights(l);
    const double scale = act_max[static_cast<std::size_t>(l)] *
                         kScaleHeadroom / static_cast<double>(max_code);
    macros_.push_back(std::make_unique<cimsram::CimMacro>(
        w.data(), w.rows(), w.cols(), macro_config, scale));
    biases_.push_back(reference.biases(l));
  }
}

const cimsram::CimMacro& CimMlp::macro(int layer) const {
  CIMNAV_REQUIRE(layer >= 0 && layer < layer_count(), "layer out of range");
  return *macros_[static_cast<std::size_t>(layer)];
}

void CimMlp::encode_layer0(const Vector& x,
                           cimsram::EncodedInput& enc) const {
  CIMNAV_REQUIRE(x.size() ==
                     static_cast<std::size_t>(macros_.front()->n_in()),
                 "input size mismatch");
  if (dropout_on_input_) {
    // Masked inputs are scaled digitally before the DAC (the CL AND gates
    // the word line; the keep scale rides on the digital input code), so
    // the encoded values are mask-independent: dropped rows are simply
    // gated off.
    thread_local Vector scaled;
    scaled.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) scaled[i] = x[i] * keep_scale_;
    macros_.front()->encode_input(scaled, enc);
  } else {
    macros_.front()->encode_input(x, enc);
  }
}

void CimMlp::finish_layer(Vector& z, const Vector& bias,
                          const Mask& col_mask, bool hidden) const {
  for (std::size_t i = 0; i < z.size(); ++i) {
    if (!col_mask.empty() && !col_mask[i]) {
      z[i] = 0.0;
      continue;
    }
    z[i] += bias[i];
  }
  if (hidden) {
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = std::max(0.0, z[i]);
      z[i] = col_mask[i] ? z[i] * keep_scale_ : 0.0;
    }
  }
}

void CimMlp::forward_window(const std::vector<FrameBatch>& frames,
                            core::ThreadPool* pool, WindowScratch& scratch,
                            std::vector<std::vector<Vector>>& outs,
                            std::vector<cimsram::MacroStats>* frame_stats)
    const {
  const std::size_t n_frames = frames.size();
  const int n_layers = layer_count();
  const int expected_sites = (dropout_on_input_ ? 1 : 0) + n_layers - 1;
  const int mask_base = dropout_on_input_ ? 1 : 0;

  // Flatten the window into (frame, iteration) work items; each item owns
  // a persistent rng stream it carries across the per-layer dispatches,
  // consumed layer by layer in a fixed order.
  outs.resize(n_frames);
  scratch.enc0.resize(n_frames);
  scratch.rngs.clear();
  scratch.frame_of.clear();
  scratch.iter_of.clear();
  for (std::size_t f = 0; f < n_frames; ++f) {
    const FrameBatch& fr = frames[f];
    CIMNAV_REQUIRE(fr.x != nullptr && fr.mask_sets != nullptr,
                   "frame batch entries must be populated");
    for (const auto& set : *fr.mask_sets)
      CIMNAV_REQUIRE(set.size() == static_cast<std::size_t>(expected_sites),
                     "mask count mismatch");
    encode_layer0(*fr.x, scratch.enc0[f]);
    outs[f].resize(fr.mask_sets->size());
    for (std::size_t t = 0; t < fr.mask_sets->size(); ++t) {
      scratch.rngs.push_back(core::Rng::stream(fr.noise_root, t));
      scratch.frame_of.push_back(static_cast<std::uint32_t>(f));
      scratch.iter_of.push_back(static_cast<std::uint32_t>(t));
    }
  }
  const std::size_t n_items = scratch.rngs.size();
  scratch.acts.resize(n_items);
  if (frame_stats != nullptr) scratch.item_stats.assign(n_items, {});

  const Mask empty;
  for (int l = 0; l < n_layers; ++l) {
    const auto& macro = *macros_[static_cast<std::size_t>(l)];
    const Vector& bias = biases_[static_cast<std::size_t>(l)];
    const bool has_hidden_mask = l + 1 < n_layers;
    const bool is_last = l + 1 == n_layers;
    const auto body = [&](std::size_t begin, std::size_t end, int) {
      thread_local std::vector<std::uint64_t> gate;
      thread_local cimsram::EncodedInput enc_hidden;
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t f = scratch.frame_of[i];
        const std::size_t t = scratch.iter_of[i];
        // Scoped to the item body: a grid read runs its arrays
        // serially on this thread, so the capture sees exactly this
        // item's accounting and nothing else.
        const cimsram::ScopedStatsCapture capture(
            frame_stats != nullptr ? &scratch.item_stats[i] : nullptr);
        const std::vector<Mask>& set = (*frames[f].mask_sets)[t];
        const Mask& row_mask =
            l == 0 ? (dropout_on_input_ ? set[0] : empty)
                   : set[static_cast<std::size_t>(mask_base + l - 1)];
        const Mask& col_mask =
            has_hidden_mask ? set[static_cast<std::size_t>(mask_base + l)]
                            : empty;
        core::Rng& rng = scratch.rngs[i];
        Vector& z = is_last ? outs[f][t] : scratch.acts[i];
        if (l == 0) {
          if (dropout_on_input_)
            CIMNAV_REQUIRE(row_mask.size() ==
                               static_cast<std::size_t>(macro.n_in()),
                           "input mask size mismatch");
          cimsram::pack_row_mask(row_mask, macro.n_in(), gate);
          macro.matvec_encoded(scratch.enc0[f], gate, col_mask, rng, z);
        } else {
          macro.encode_input(scratch.acts[i], enc_hidden);
          cimsram::pack_row_mask(row_mask, macro.n_in(), gate);
          macro.matvec_encoded(enc_hidden, gate, col_mask, rng, z);
        }
        finish_layer(z, bias, col_mask, has_hidden_mask);
      }
    };
    if (n_items == 0) continue;
    if (pool != nullptr) {
      pool->parallel_for(n_items, 1, body);
    } else {
      body(0, n_items, 0);
    }
  }

  if (frame_stats != nullptr) {
    frame_stats->assign(n_frames, {});
    for (std::size_t i = 0; i < n_items; ++i)
      (*frame_stats)[scratch.frame_of[i]] += scratch.item_stats[i];
  }
}

Vector CimMlp::forward_deterministic(const Vector& x, core::Rng& rng) const {
  const Mask empty;
  Vector a = x;
  for (int l = 0; l < layer_count(); ++l) {
    Vector z = macros_[static_cast<std::size_t>(l)]->matvec(a, empty, empty,
                                                           rng);
    const Vector& b = biases_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
    if (l + 1 < layer_count())
      for (double& v : z) v = std::max(0.0, v);
    a = std::move(z);
  }
  return a;
}

void CimMlp::forward_reuse_window(
    const std::vector<ReuseFrame>& frames, core::ThreadPool* pool,
    ReuseScratch& scratch) const {
  const int n_layers = layer_count();
  const int expected_sites = (dropout_on_input_ ? 1 : 0) + n_layers - 1;
  const int mask_base = dropout_on_input_ ? 1 : 0;
  CIMNAV_REQUIRE(expected_sites >= 1, "compute reuse needs a mask site");
  if (!dropout_on_input_)
    CIMNAV_REQUIRE(n_layers >= 2,
                   "hidden-site reuse needs at least one hidden layer");
  // Reuse locus: layer 0 over the input mask, or layer 1 over the first
  // hidden mask — in both modes the locus mask is site 0 of every set.
  const int lc = dropout_on_input_ ? 0 : 1;
  const auto& locus = *macros_[static_cast<std::size_t>(lc)];
  const Mask no_col;  // accumulators keep all columns live

  // Partition every frame's visiting positions into refresh chains.
  const std::size_t n_frames = frames.size();
  scratch.enc0.resize(n_frames);
  scratch.chain_frame.clear();
  scratch.chain_begin.clear();
  scratch.chain_end.clear();
  scratch.rngs.clear();
  bool tracking = false;
  for (std::size_t f = 0; f < n_frames; ++f) {
    const ReuseFrame& fr = frames[f];
    CIMNAV_REQUIRE(fr.x != nullptr && fr.mask_sets != nullptr &&
                       fr.outs != nullptr,
                   "reuse frame entries must be populated");
    const std::size_t t_total = fr.mask_sets->size();
    for (const auto& set : *fr.mask_sets) {
      CIMNAV_REQUIRE(set.size() == static_cast<std::size_t>(expected_sites),
                     "mask count mismatch");
      CIMNAV_REQUIRE(set[0].size() == static_cast<std::size_t>(locus.n_in()),
                     "reuse locus mask size mismatch");
    }
    // encode_layer0 builds the frame's frozen encoding: the keep-scaled
    // input with input-site dropout (shared by all of the frame's
    // chains), the raw input otherwise (the per-chain layer-0 dense
    // products replay it at chain start).
    encode_layer0(*fr.x, scratch.enc0[f]);
    fr.outs->resize(t_total);
    const std::size_t chain_len = fr.chain_len > 0 ? fr.chain_len : t_total;
    const std::size_t n_chains =
        t_total == 0 ? 0 : (t_total + chain_len - 1) / chain_len;
    for (std::size_t c = 0; c < n_chains; ++c) {
      scratch.chain_frame.push_back(static_cast<std::uint32_t>(f));
      scratch.chain_begin.push_back(c * chain_len);
      scratch.chain_end.push_back(std::min((c + 1) * chain_len, t_total));
      scratch.rngs.push_back(core::Rng::stream(fr.noise_root, c));
    }
    tracking = tracking || fr.stats != nullptr;
  }
  const std::size_t n_chains = scratch.rngs.size();
  if (n_chains == 0) return;

  if (tracking) scratch.chain_stats.assign(n_chains, {});
  // Flip lists are bounded by the locus row count; reserving the bound
  // keeps the digital-diff loop off the heap even when a fresh mask draw
  // flips more rows than any earlier chain did.
  const std::size_t locus_rows = static_cast<std::size_t>(locus.n_in());

  // One work item per chain: each chain runs its whole serial loop on its
  // own noise stream, start to finish inside its work item, so its working
  // buffers can be per worker thread and any partitioning onto workers
  // gives the same bits.
  const auto body = [&](std::size_t b, std::size_t e, int) {
    thread_local std::vector<std::uint64_t> gate;
    thread_local std::vector<std::size_t> added, removed;
    thread_local cimsram::EncodedInput enc_hidden, frozen_hidden;
    thread_local Vector acc, dlt, a, pre, fv;
    added.reserve(locus_rows);
    removed.reserve(locus_rows);
    for (std::size_t ch = b; ch < e; ++ch) {
      const ReuseFrame& fr = frames[scratch.chain_frame[ch]];
      const cimsram::ScopedStatsCapture capture(
          fr.stats != nullptr ? &scratch.chain_stats[ch] : nullptr);
      // With input-site dropout the frame's encoding is the frozen input;
      // in hidden-site mode the frozen hidden values depend on the
      // chain's own layer-0 draws and are encoded at chain start.
      const cimsram::EncodedInput& frozen =
          dropout_on_input_ ? scratch.enc0[scratch.chain_frame[ch]]
                            : frozen_hidden;
      core::Rng& rng = scratch.rngs[ch];
      const Mask* prv = nullptr;
      for (std::size_t k = scratch.chain_begin[ch]; k < scratch.chain_end[ch];
           ++k) {
        const std::vector<Mask>& set =
            (*fr.mask_sets)[fr.order != nullptr ? fr.order[k] : k];
        const Mask& m = set[0];
        if (prv == nullptr) {
          // Chain start: dense (re)initialization of the accumulator. In
          // hidden-site mode the frozen hidden values come from this
          // chain's own dense layer-0 read.
          if (!dropout_on_input_) {
            const auto& m0 = *macros_[0];
            cimsram::pack_row_mask(Mask{}, m0.n_in(), gate);
            m0.matvec_encoded(scratch.enc0[scratch.chain_frame[ch]], gate,
                              no_col, rng, pre);
            fv.resize(pre.size());
            for (std::size_t j = 0; j < pre.size(); ++j)
              fv[j] = std::max(0.0, pre[j] + biases_[0][j]) * keep_scale_;
            macros_[1]->encode_input(fv, frozen_hidden);
          }
          cimsram::pack_row_mask(m, locus.n_in(), gate);
          locus.matvec_encoded(frozen, gate, no_col, rng, acc);
        } else {
          // One signed delta read nets the rows that flipped on against
          // the rows that flipped off; no flip means no read and no draw.
          added.clear();
          removed.clear();
          for (std::size_t r = 0; r < m.size(); ++r) {
            if (m[r] && !(*prv)[r]) added.push_back(r);
            if (!m[r] && (*prv)[r]) removed.push_back(r);
          }
          if (!added.empty() || !removed.empty()) {
            locus.matvec_delta(frozen, added.data(), added.size(),
                               removed.data(), removed.size(), rng, dlt);
            for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += dlt[j];
          }
        }
        prv = &m;
        if (lc + 1 == n_layers) {
          Vector& out = (*fr.outs)[k];
          out = acc;
          finish_layer(out, biases_[static_cast<std::size_t>(lc)], no_col,
                       /*hidden=*/false);
          continue;
        }
        // Dense tail: the layers after the locus see new inputs every
        // iteration.
        a = acc;
        finish_layer(a, biases_[static_cast<std::size_t>(lc)],
                     set[static_cast<std::size_t>(mask_base + lc)],
                     /*hidden=*/true);
        for (int l = lc + 1; l < n_layers; ++l) {
          const bool is_last = l + 1 == n_layers;
          const auto& macro = *macros_[static_cast<std::size_t>(l)];
          const Mask& row_mask =
              set[static_cast<std::size_t>(mask_base + l - 1)];
          const Mask& col_mask =
              is_last ? no_col : set[static_cast<std::size_t>(mask_base + l)];
          Vector& z = is_last ? (*fr.outs)[k] : a;
          macro.encode_input(a, enc_hidden);
          cimsram::pack_row_mask(row_mask, macro.n_in(), gate);
          macro.matvec_encoded(enc_hidden, gate, col_mask, rng, z);
          finish_layer(z, biases_[static_cast<std::size_t>(l)], col_mask,
                       /*hidden=*/!is_last);
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(n_chains, 1, body);
  } else {
    body(0, n_chains, 0);
  }

  if (tracking) {
    for (std::size_t f = 0; f < n_frames; ++f)
      if (frames[f].stats != nullptr) *frames[f].stats = {};
    for (std::size_t ch = 0; ch < n_chains; ++ch) {
      cimsram::MacroStats* sink = frames[scratch.chain_frame[ch]].stats;
      if (sink != nullptr) *sink += scratch.chain_stats[ch];
    }
  }
}

cimsram::MacroStats CimMlp::total_stats() const {
  cimsram::MacroStats total;
  for (const auto& m : macros_) total += m->stats();
  return total;
}

void CimMlp::reset_stats() const {
  for (const auto& m : macros_) m->reset_stats();
}

}  // namespace cimnav::nn
