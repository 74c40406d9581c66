// Tests for the cross-frame batched MC-Dropout window, stage B of the
// per-frame pipeline (scan -> VO -> filter): CimMlp::forward_window
// against a serial dense oracle, and bnn::mc_predict_cim_window against
// serial per-frame mc_predict_cim calls at several thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "cimsram/cim_macro.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"

namespace cimnav {
namespace {

using core::Rng;
using core::ThreadPool;

constexpr int kIn = 24;

std::unique_ptr<nn::CimMlp> make_cim(const nn::Mlp& net) {
  Rng rng(5);
  std::vector<nn::Vector> calib;
  for (int i = 0; i < 4; ++i) {
    nn::Vector v(kIn);
    for (auto& e : v) e = rng.uniform();
    calib.push_back(std::move(v));
  }
  cimsram::CimMacroConfig mc;
  mc.input_bits = 4;
  mc.weight_bits = 4;
  Rng crng(7);
  return std::make_unique<nn::CimMlp>(net, mc, calib, crng);
}

std::unique_ptr<nn::Mlp> make_net(bool dropout_on_input) {
  Rng rng(5);
  nn::MlpConfig cfg;
  cfg.layer_sizes = {kIn, 16, 8, 3};
  cfg.dropout_on_input = dropout_on_input;
  return std::make_unique<nn::Mlp>(cfg, rng);
}

/// Pure function of the frame index, like every stage-A input.
nn::Vector frame_input(int frame) {
  Rng rng = Rng::stream(0xF00D, static_cast<std::uint64_t>(frame));
  nn::Vector x(kIn);
  for (auto& e : x) e = rng.uniform();
  return x;
}

/// Serial dense oracle for CimMlp::forward_window, built only from the
/// public macro surface and the float net's biases: iteration t carries
/// one rng stream keyed (noise_root, t) through the layers; each layer
/// encodes its input, reads the array through the packed row gate, and
/// runs the digital epilogue (bias on live columns, then ReLU and the
/// inverted-dropout scale on hidden layers).
std::vector<nn::Vector> dense_oracle(
    const nn::CimMlp& cim, const nn::Mlp& net, const nn::Vector& x,
    const std::vector<std::vector<nn::Mask>>& sets,
    std::uint64_t noise_root) {
  const double keep = cim.dropout_keep_scale();
  const nn::Mask none;
  std::vector<nn::Vector> outs;
  for (std::size_t t = 0; t < sets.size(); ++t) {
    const std::vector<nn::Mask>& set = sets[t];
    Rng rng = Rng::stream(noise_root, t);
    std::size_t site = 0;
    const nn::Mask* rows = &none;
    nn::Vector a = x;
    if (cim.dropout_on_input()) {
      // The keep scale rides on the digital input code; the mask only
      // gates word lines.
      for (double& v : a) v *= keep;
      rows = &set[site++];
    }
    for (int l = 0; l < cim.layer_count(); ++l) {
      const cimsram::CimMacro& macro = cim.macro(l);
      const bool hidden = l + 1 < cim.layer_count();
      const nn::Mask& cols = hidden ? set[site] : none;
      cimsram::EncodedInput enc;
      std::vector<std::uint64_t> gate;
      nn::Vector z;
      macro.encode_input(a, enc);
      cimsram::pack_row_mask(*rows, macro.n_in(), gate);
      macro.matvec_encoded(enc, gate, cols, rng, z);
      const nn::Vector& bias = net.biases(l);
      for (std::size_t i = 0; i < z.size(); ++i) {
        const bool live = cols.empty() || cols[i] != 0;
        z[i] = live ? z[i] + bias[i] : 0.0;
        if (hidden) z[i] = live ? std::max(0.0, z[i]) * keep : 0.0;
      }
      if (hidden) rows = &set[site++];
      a = std::move(z);
    }
    outs.push_back(std::move(a));
  }
  return outs;
}

void expect_same_prediction(const bnn::McPrediction& a,
                            const bnn::McPrediction& b) {
  ASSERT_EQ(a.mean.size(), b.mean.size());
  EXPECT_EQ(a.samples, b.samples);
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    EXPECT_EQ(a.mean[i], b.mean[i]);
    EXPECT_EQ(a.variance[i], b.variance[i]);
  }
}

TEST(ForwardWindow, BitIdenticalToSerialDenseOracle) {
  for (bool on_input : {false, true}) {
    const auto net = make_net(on_input);
    const auto cim = make_cim(*net);
    constexpr int kFrames = 5, kIters = 7;

    // Draw per-frame mask sets once; both paths replay the same sets.
    Rng mask_rng(21);
    const int sites = (on_input ? 1 : 0) + cim->layer_count() - 1;
    std::vector<std::vector<std::vector<nn::Mask>>> sets(kFrames);
    for (auto& frame_sets : sets) {
      frame_sets.resize(kIters);
      for (auto& set : frame_sets) {
        set.resize(static_cast<std::size_t>(sites));
        for (int s = 0; s < sites; ++s) {
          const int width = s == 0 && on_input
                                ? cim->macro(0).n_in()
                                : cim->macro(s - (on_input ? 1 : 0)).n_out();
          set[static_cast<std::size_t>(s)].resize(
              static_cast<std::size_t>(width));
          for (auto& bit : set[static_cast<std::size_t>(s)])
            bit = mask_rng.bernoulli(0.5) ? 0 : 1;
        }
      }
    }
    std::vector<nn::Vector> inputs;
    for (int f = 0; f < kFrames; ++f) inputs.push_back(frame_input(f));

    std::vector<nn::CimMlp::FrameBatch> frames(kFrames);
    for (int f = 0; f < kFrames; ++f) {
      frames[static_cast<std::size_t>(f)].x =
          &inputs[static_cast<std::size_t>(f)];
      frames[static_cast<std::size_t>(f)].mask_sets =
          &sets[static_cast<std::size_t>(f)];
      frames[static_cast<std::size_t>(f)].noise_root =
          1000u + static_cast<std::uint64_t>(f);
    }

    ThreadPool p8(8);
    nn::CimMlp::WindowScratch scratch;
    std::vector<std::vector<nn::Vector>> window_outs;
    cim->forward_window(frames, &p8, scratch, window_outs);
    // A second run through the same scratch must reuse buffers cleanly.
    cim->forward_window(frames, &p8, scratch, window_outs);

    ASSERT_EQ(window_outs.size(), static_cast<std::size_t>(kFrames));
    for (int f = 0; f < kFrames; ++f) {
      const auto ref = dense_oracle(
          *cim, *net, inputs[static_cast<std::size_t>(f)],
          sets[static_cast<std::size_t>(f)],
          1000u + static_cast<std::uint64_t>(f));
      ASSERT_EQ(window_outs[static_cast<std::size_t>(f)].size(), ref.size());
      for (std::size_t t = 0; t < ref.size(); ++t)
        for (std::size_t j = 0; j < ref[t].size(); ++j)
          EXPECT_EQ(window_outs[static_cast<std::size_t>(f)][t][j],
                    ref[t][j])
              << "on_input=" << on_input << " f=" << f << " t=" << t;
    }
  }
}

TEST(McPredictCimWindow, BitIdenticalToSerialPerFrameCalls) {
  for (bool on_input : {false, true}) {
    const auto net = make_net(on_input);
    const auto cim = make_cim(*net);
    constexpr int kFrames = 6;
    std::vector<nn::Vector> inputs;
    std::vector<const nn::Vector*> xs;
    for (int f = 0; f < kFrames; ++f) inputs.push_back(frame_input(f));
    for (const auto& x : inputs) xs.push_back(&x);

    bnn::McOptions opt;
    opt.iterations = 9;
    opt.dropout_p = 0.5;

    // Serial reference: frame-at-a-time draws from the same sources.
    std::vector<bnn::McPrediction> ref;
    bnn::McWorkload ref_wl;
    {
      bnn::SoftwareMaskSource masks(Rng{11});
      Rng arng(13);
      for (const auto& x : inputs) {
        bnn::McWorkload wl;
        ref.push_back(bnn::mc_predict_cim(*cim, x, opt, masks, arng, &wl));
        ref_wl += wl;
      }
    }

    ThreadPool p1(1), p2(2), p8(8);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p2,
                             &p8}) {
      bnn::SoftwareMaskSource masks(Rng{11});
      Rng arng(13);
      bnn::McOptions wopt = opt;
      wopt.pool = pool;
      bnn::McWorkload wl;
      const auto preds =
          bnn::mc_predict_cim_window(*cim, xs, wopt, masks, arng, &wl);
      ASSERT_EQ(preds.size(), ref.size());
      for (std::size_t f = 0; f < ref.size(); ++f)
        expect_same_prediction(preds[f], ref[f]);
      EXPECT_EQ(wl.macro.wordline_pulses, ref_wl.macro.wordline_pulses);
      EXPECT_EQ(wl.macro.adc_conversions, ref_wl.macro.adc_conversions);
      EXPECT_EQ(wl.mask_bits_drawn, ref_wl.mask_bits_drawn);
      EXPECT_EQ(wl.input_mask_flips, ref_wl.input_mask_flips);
    }
  }
}

}  // namespace
}  // namespace cimnav
