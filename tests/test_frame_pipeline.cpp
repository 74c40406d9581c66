// Tests for the streaming frame pipeline and the cross-frame batched
// MC-Dropout window: bit-identity against the serial per-frame path at
// several thread counts and window sizes, buffer-reuse correctness across
// in-flight frames, and drain semantics when a run ends mid-window.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
#include "vo/frame_pipeline.hpp"

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

/// Pure function of the frame index: the stage-A contract.
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
      const cimsram::MacroLike& macro = cim.macro(l);
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

TEST(McPredictCimWindow, SideItemsRunExactlyOnceIncludingDrainAndFallback) {
  const auto net = make_net(false);
  const auto cim = make_cim(*net);
  nn::Vector x0 = frame_input(0);
  std::vector<const nn::Vector*> xs{&x0};
  ThreadPool p4(4);
  for (bool reuse : {false, true}) {
    for (bool empty_window : {false, true}) {
      bnn::SoftwareMaskSource masks(Rng{11});
      Rng arng(13);
      bnn::McOptions opt;
      opt.iterations = 5;
      opt.dropout_p = 0.5;
      opt.compute_reuse = reuse;
      opt.pool = &p4;
      std::vector<std::atomic<int>> hits(3);
      bnn::mc_predict_cim_window(
          *cim, empty_window ? std::vector<const nn::Vector*>{} : xs, opt,
          masks, arng, nullptr, hits.size(), [&](std::size_t k) {
            hits[k].fetch_add(1, std::memory_order_relaxed);
          });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

class FramePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = make_net(false);  // the VO configuration: hidden-site dropout
    cim_ = make_cim(*net_);
  }

  struct Consumed {
    int frame;
    bnn::McPrediction pred;
  };

  /// Serial per-frame reference: the loop the pipeline must match.
  std::vector<Consumed> serial_reference(int frames,
                                         const bnn::McOptions& opt) {
    std::vector<Consumed> out;
    bnn::SoftwareMaskSource masks(Rng{11});
    Rng arng(13);
    for (int f = 0; f < frames; ++f) {
      const nn::Vector x = frame_input(f);
      out.push_back({f, bnn::mc_predict_cim(*cim_, x, opt, masks, arng)});
    }
    return out;
  }

  std::vector<Consumed> pipelined(int frames, int window, ThreadPool* pool,
                                  const bnn::McOptions& opt,
                                  std::atomic<int>* input_calls = nullptr) {
    vo::FramePipelineConfig cfg;
    cfg.window = window;
    cfg.pool = pool;
    cfg.mc = opt;
    vo::FramePipeline pipe(*cim_, cfg);
    std::vector<Consumed> out;
    bnn::SoftwareMaskSource masks(Rng{11});
    Rng arng(13);
    pipe.run(
        frames,
        [&](int f) {
          if (input_calls != nullptr)
            input_calls[f].fetch_add(1, std::memory_order_relaxed);
          return frame_input(f);
        },
        [&](int f, const bnn::McPrediction& p) { out.push_back({f, p}); },
        masks, arng);
    return out;
  }

  std::unique_ptr<nn::Mlp> net_;
  std::unique_ptr<nn::CimMlp> cim_;
};

TEST_F(FramePipelineTest, BitIdenticalToSerialLoopAcrossThreadCounts) {
  constexpr int kFrames = 7;
  bnn::McOptions opt;
  opt.iterations = 6;
  opt.dropout_p = 0.5;
  const auto ref = serial_reference(kFrames, opt);

  ThreadPool p1(1), p2(2), p8(8);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p2,
                           &p8}) {
    for (int window : {1, 3, 16}) {  // 16 > frame count: one short window
      const auto got = pipelined(kFrames, window, pool, opt);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i].frame, ref[i].frame);  // strict frame order
        expect_same_prediction(got[i].pred, ref[i].pred);
      }
    }
  }
}

TEST_F(FramePipelineTest, BuffersReusedCleanlyAcrossInFlightFrames) {
  // 9 frames through a window of 3 exercise >= 3 in-flight frames per
  // tick and three full buffer swaps; every input must be generated
  // exactly once (no stale slot may be re-served to stage B), and the
  // same pipeline object must be reusable for a second run.
  constexpr int kFrames = 9;
  bnn::McOptions opt;
  opt.iterations = 4;
  opt.dropout_p = 0.5;
  const auto ref = serial_reference(kFrames, opt);

  ThreadPool p8(8);
  vo::FramePipelineConfig cfg;
  cfg.window = 3;
  cfg.pool = &p8;
  cfg.mc = opt;
  vo::FramePipeline pipe(*cim_, cfg);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::atomic<int>> input_calls(kFrames);
    std::vector<Consumed> got;
    bnn::SoftwareMaskSource masks(Rng{11});
    Rng arng(13);
    pipe.run(
        kFrames,
        [&](int f) {
          input_calls[f].fetch_add(1, std::memory_order_relaxed);
          return frame_input(f);
        },
        [&](int f, const bnn::McPrediction& p) { got.push_back({f, p}); },
        masks, arng);
    for (int f = 0; f < kFrames; ++f) EXPECT_EQ(input_calls[f].load(), 1);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].frame, ref[i].frame);
      expect_same_prediction(got[i].pred, ref[i].pred);
    }
  }
}

TEST_F(FramePipelineTest, DrainsCleanlyWhenRunEndsMidWindow) {
  bnn::McOptions opt;
  opt.iterations = 3;
  opt.dropout_p = 0.5;
  ThreadPool p4(4);
  // frame_count % window != 0, frame_count < window, and an empty run:
  // the epilogue must flush every in-flight frame without deadlocking.
  for (const auto [frames, window] : {std::pair{5, 3}, std::pair{2, 4},
                                      std::pair{0, 3}}) {
    const auto ref = serial_reference(frames, opt);
    const auto got = pipelined(frames, window, &p4, opt);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(frames));
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].frame, ref[i].frame);
      expect_same_prediction(got[i].pred, ref[i].pred);
    }
  }
}

TEST_F(FramePipelineTest, ComputeReuseOptionsFallBackBitIdentically) {
  // With compute_reuse the window path degrades to the per-frame loop;
  // the pipeline must still be bit-identical to the serial reference.
  constexpr int kFrames = 5;
  bnn::McOptions opt;
  opt.iterations = 6;
  opt.dropout_p = 0.5;
  opt.compute_reuse = true;
  const auto ref = serial_reference(kFrames, opt);
  ThreadPool p8(8);
  const auto got = pipelined(kFrames, 3, &p8, opt);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].frame, ref[i].frame);
    expect_same_prediction(got[i].pred, ref[i].pred);
  }
}

}  // namespace
}  // namespace cimnav
