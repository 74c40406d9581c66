// Unit tests for the neural-network stack: matrix ops, MLP training,
// quantized inference, CIM-executed inference and compute reuse.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"
#include "nn/quant_mlp.hpp"
#include "nn/tensor.hpp"

namespace cimnav::nn {
namespace {

using core::Rng;

TEST(Matrix, MatvecAndTranspose) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  const Vector y = m.matvec({1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
  const Vector yt = m.matvec_transposed({1, 1});
  EXPECT_DOUBLE_EQ(yt[0], 5);
  EXPECT_DOUBLE_EQ(yt[1], 7);
  EXPECT_DOUBLE_EQ(yt[2], 9);
}

TEST(Matrix, SizeChecks) {
  Matrix m(2, 3);
  EXPECT_THROW(m.matvec({1, 1}), std::invalid_argument);
  EXPECT_THROW(m.matvec_transposed({1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(Matrix(0, 3), std::invalid_argument);
}

MlpConfig small_config(double p = 0.0, bool input_dropout = false) {
  MlpConfig cfg;
  cfg.layer_sizes = {4, 16, 8, 2};
  cfg.dropout_p = p;
  cfg.dropout_on_input = input_dropout;
  return cfg;
}

TEST(Mlp, ForwardShapeAndDeterminism) {
  Rng rng(3);
  const Mlp net(small_config(), rng);
  const Vector x{0.1, 0.2, 0.3, 0.4};
  const Vector y1 = net.forward(x);
  const Vector y2 = net.forward(x);
  ASSERT_EQ(y1.size(), 2u);
  EXPECT_EQ(y1, y2);
}

TEST(Mlp, DropoutSiteAccounting) {
  Rng rng(5);
  const Mlp hidden_only(small_config(0.5, false), rng);
  EXPECT_EQ(hidden_only.dropout_site_count(), 2);
  EXPECT_EQ(hidden_only.dropout_site_width(0), 16);
  EXPECT_EQ(hidden_only.dropout_site_width(1), 8);
  const Mlp with_input(small_config(0.5, true), rng);
  EXPECT_EQ(with_input.dropout_site_count(), 3);
  EXPECT_EQ(with_input.dropout_site_width(0), 4);
}

TEST(Mlp, AllOnesMaskEqualsScaledForward) {
  // With every neuron kept, the masked forward is the deterministic
  // forward scaled by keep_scale at each site (inverted dropout).
  Rng rng(7);
  MlpConfig cfg = small_config(0.5, false);
  const Mlp net(cfg, rng);
  const Vector x{0.3, 0.1, 0.9, 0.5};
  std::vector<Mask> ones;
  for (int s = 0; s < net.dropout_site_count(); ++s)
    ones.emplace_back(static_cast<std::size_t>(net.dropout_site_width(s)), 1);
  const Vector masked = net.forward_masked(x, ones);
  ASSERT_EQ(masked.size(), 2u);
  // Not equal to plain forward (scaling), but finite and deterministic.
  EXPECT_TRUE(std::isfinite(masked[0]));
}

TEST(Mlp, MaskedForwardExpectationExactForLinearNet) {
  // For a single weight layer (no ReLU between dropout and output),
  // inverted dropout makes E[masked forward] equal the deterministic
  // forward exactly; only Monte-Carlo error remains.
  Rng rng(11);
  MlpConfig cfg;
  cfg.layer_sizes = {4, 2};
  cfg.dropout_p = 0.3;
  cfg.dropout_on_input = true;
  const Mlp net(cfg, rng);
  const Vector x{0.5, 0.2, 0.8, 0.1};
  const Vector ref = net.forward(x);
  Vector mean(2, 0.0);
  Rng mrng(13);
  const int T = 60000;
  for (int t = 0; t < T; ++t) {
    const auto masks =
        net.sample_masks([&] { return mrng.bernoulli(0.3); });
    const Vector y = net.forward_masked(x, masks);
    for (std::size_t i = 0; i < y.size(); ++i) mean[i] += y[i] / T;
  }
  for (std::size_t i = 0; i < mean.size(); ++i)
    EXPECT_NEAR(mean[i], ref[i], 0.01);
}

TEST(Mlp, MaskedForwardExpectationApproximatesForwardThroughRelu) {
  // Through ReLU the equality is only approximate (Jensen gap), but the
  // MC mean must stay within a moderate band of the deterministic pass.
  Rng rng(11);
  const Mlp net(small_config(0.3, false), rng);
  const Vector x{0.5, 0.2, 0.8, 0.1};
  const Vector ref = net.forward(x);
  Vector mean(2, 0.0);
  Rng mrng(13);
  const int T = 4000;
  for (int t = 0; t < T; ++t) {
    const auto masks =
        net.sample_masks([&] { return mrng.bernoulli(0.3); });
    const Vector y = net.forward_masked(x, masks);
    for (std::size_t i = 0; i < y.size(); ++i) mean[i] += y[i] / T;
  }
  for (std::size_t i = 0; i < mean.size(); ++i)
    EXPECT_NEAR(mean[i], ref[i], 0.5 * (std::abs(ref[i]) + 0.1));
}

TEST(Mlp, TrainsLinearTask) {
  Rng rng(17);
  Mlp net(small_config(), rng);
  std::vector<Vector> X, Y;
  for (int i = 0; i < 1000; ++i) {
    Vector x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    Y.push_back({x[0] - x[1], 0.5 * x[2] + 0.5 * x[3]});
    X.push_back(std::move(x));
  }
  TrainOptions opt;
  double loss = 1.0;
  for (int e = 0; e < 60; ++e) loss = net.train_epoch(X, Y, opt, rng);
  EXPECT_LT(loss, 1e-3);
  EXPECT_LT(net.evaluate_mse(X, Y), 1e-3);
}

TEST(Mlp, TrainingLossDecreases) {
  Rng rng(19);
  Mlp net(small_config(0.1, false), rng);
  std::vector<Vector> X, Y;
  for (int i = 0; i < 600; ++i) {
    Vector x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    Y.push_back({x[0] * x[1], x[2]});
    X.push_back(std::move(x));
  }
  TrainOptions opt;
  const double first = net.train_epoch(X, Y, opt, rng);
  double last = first;
  for (int e = 0; e < 30; ++e) last = net.train_epoch(X, Y, opt, rng);
  EXPECT_LT(last, first);
}

/// FNV-1a-style fold of a double's bit pattern.
std::uint64_t fold(std::uint64_t h, double v) {
  return (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001b3ull;
}

/// Hash of every weight and bias (layer by layer), then `mse`.
std::uint64_t trained_hash(const Mlp& net, double mse) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int l = 0; l < net.layer_count(); ++l) {
    for (double w : net.weights(l).data()) h = fold(h, w);
    for (double b : net.biases(l)) h = fold(h, b);
  }
  return fold(h, mse);
}

/// A net shaped like VoPipeline's regressor (144 -> 128 -> 64 -> 4,
/// hidden-site dropout) and 200 random samples: six full batches of 32
/// and a partial batch of 8.
struct VoShapedTask {
  Rng rng{2024};
  Mlp net{[] {
            MlpConfig cfg;
            cfg.layer_sizes = {144, 128, 64, 4};
            cfg.dropout_p = 0.2;
            cfg.dropout_on_input = false;
            return cfg;
          }(),
          rng};
  std::vector<Vector> X, Y;

  VoShapedTask() {
    for (int i = 0; i < 200; ++i) {
      Vector x(144);
      for (double& v : x) v = rng.uniform();
      X.push_back(std::move(x));
      Y.push_back({rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15),
                   rng.uniform(-0.15, 0.15), rng.uniform(-0.12, 0.12)});
    }
  }
};

/// A small net with input-site dropout, trained in dataset order
/// (shuffle off) in batches of 8 over 45 samples.
struct InputDropoutTask {
  Rng rng{77};
  Mlp net{[] {
            MlpConfig cfg;
            cfg.layer_sizes = {6, 12, 3};
            cfg.dropout_p = 0.3;
            cfg.dropout_on_input = true;
            return cfg;
          }(),
          rng};
  std::vector<Vector> X, Y;
  TrainOptions opt;

  InputDropoutTask() {
    for (int i = 0; i < 45; ++i) {
      Vector x(6);
      for (double& v : x) v = rng.uniform();
      Y.push_back({x[0] - x[1], x[2] * x[3], 0.5 * x[4] + x[5]});
      X.push_back(std::move(x));
    }
    opt.batch_size = 8;
    opt.shuffle = false;
  }
};

// Pinned from the per-sample serial training loop that preceded the
// pooled one, on x86-64. Backward and Adam multiply-adds contract to FMA
// when the target has it (-march=native on an FMA host), so each build
// kind has its own value; the losses and rng draws agree across both.
#if defined(__FMA__)
constexpr std::uint64_t kGoldenVoShaped = 0x71480e205cae1b0eull;
constexpr std::uint64_t kGoldenInputDropout = 0xd4201b0a6d6fb492ull;
#else
constexpr std::uint64_t kGoldenVoShaped = 0xcf2f9f9217151a98ull;
constexpr std::uint64_t kGoldenInputDropout = 0xb5f72cfc61a4ab95ull;
#endif

TEST(TrainEpoch, MatchesPinnedWeightHash) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden hashes are pinned for x86-64 only";
#endif
  VoShapedTask vo;
  double mse = 0.0;
  for (int e = 0; e < 3; ++e)
    mse = vo.net.train_epoch(vo.X, vo.Y, TrainOptions{}, vo.rng);
  EXPECT_EQ(trained_hash(vo.net, mse), kGoldenVoShaped);
  EXPECT_EQ(mse, 0x1.30b22062b5f61p-3);
  EXPECT_EQ(vo.rng(), 0x7d756c704d501ed3ull);

  InputDropoutTask in;
  for (int e = 0; e < 4; ++e)
    mse = in.net.train_epoch(in.X, in.Y, in.opt, in.rng);
  EXPECT_EQ(trained_hash(in.net, mse), kGoldenInputDropout);
  EXPECT_EQ(mse, 0x1.3a4fe6e9e1fd1p+0);
  EXPECT_EQ(in.rng(), 0xb54096f882b6b0e7ull);
}

TEST(TrainEpoch, BitIdenticalAtAnyPoolSize) {
  // Two epochs, so the second one's steps read Adam moments the first
  // one wrote: weights, loss and the rng's next draw must not depend on
  // the pool.
  struct Outcome {
    std::uint64_t vo_hash, vo_next, in_hash, in_next;
  };
  const auto train = [](core::ThreadPool* pool) {
    Outcome o{};
    VoShapedTask vo;
    double mse = 0.0;
    for (int e = 0; e < 2; ++e)
      mse = vo.net.train_epoch(vo.X, vo.Y, TrainOptions{}, vo.rng, pool);
    o.vo_hash = trained_hash(vo.net, mse);
    o.vo_next = vo.rng();
    InputDropoutTask in;
    for (int e = 0; e < 2; ++e)
      mse = in.net.train_epoch(in.X, in.Y, in.opt, in.rng, pool);
    o.in_hash = trained_hash(in.net, mse);
    o.in_next = in.rng();
    return o;
  };
  const Outcome serial = train(nullptr);
  for (int threads : {1, 2, 4, 8}) {
    core::ThreadPool pool(threads);
    const Outcome pooled = train(&pool);
    EXPECT_EQ(pooled.vo_hash, serial.vo_hash) << threads << " threads";
    EXPECT_EQ(pooled.vo_next, serial.vo_next) << threads << " threads";
    EXPECT_EQ(pooled.in_hash, serial.in_hash) << threads << " threads";
    EXPECT_EQ(pooled.in_next, serial.in_next) << threads << " threads";
  }
}

TEST(TrainEpoch, RejectsBadSamplesUpFront) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(151);
  Mlp net(small_config(0.2), rng);
  const std::vector<Vector> X{{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7, 0.8}};
  const std::vector<Vector> Y{{0.1, 0.2}, {0.3, 0.4}};
  const TrainOptions opt;
  const auto rejects = [&](std::vector<Vector> x, std::vector<Vector> y) {
    const Matrix w0 = net.weights(0);
    Rng before = rng;
    EXPECT_THROW(net.train_epoch(x, y, opt, rng), std::invalid_argument);
    // Nothing was drawn or updated before the rejection.
    EXPECT_EQ(net.weights(0).data(), w0.data());
    EXPECT_EQ(rng(), before());
  };
  rejects({{0.1, 0.2, 0.3}, X[1]}, Y);             // input too narrow
  rejects({X[0], {0.5, 0.6, 0.7, 0.8, 0.9}}, Y);   // input too wide
  rejects(X, {{0.1}, Y[1]});                        // target too narrow
  rejects(X, {Y[0], {0.3, 0.4, 0.5}});              // target too wide
  rejects({X[0], {0.5, nan, 0.7, 0.8}}, Y);         // non-finite input
  rejects({{inf, 0.2, 0.3, 0.4}, X[1]}, Y);
  rejects(X, {Y[0], {0.3, -inf}});                  // non-finite target
  rejects(X, {{nan, 0.2}, Y[1]});
  rejects(X, {Y[0]});                               // unpaired
  rejects({}, {});                                  // empty
  EXPECT_NO_THROW(net.train_epoch(X, Y, opt, rng));
}

TEST(TrainEpoch, ValidatesTrainOptions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(157);
  Mlp net(small_config(0.2), rng);
  const std::vector<Vector> X{{0.1, 0.2, 0.3, 0.4}};
  const std::vector<Vector> Y{{0.1, 0.2}};
  const auto with = [](auto edit) {
    TrainOptions opt;
    edit(opt);
    return opt;
  };
  const std::vector<TrainOptions> bad{
      with([](TrainOptions& o) { o.epochs = -1; }),
      with([](TrainOptions& o) { o.batch_size = 0; }),
      with([](TrainOptions& o) { o.learning_rate = 0.0; }),
      with([](TrainOptions& o) { o.learning_rate = -1e-3; }),
      with([nan](TrainOptions& o) { o.learning_rate = nan; }),
      with([inf](TrainOptions& o) { o.learning_rate = inf; }),
      with([](TrainOptions& o) { o.beta1 = 1.0; }),
      with([](TrainOptions& o) { o.beta1 = -0.1; }),
      with([nan](TrainOptions& o) { o.beta1 = nan; }),
      with([](TrainOptions& o) { o.beta2 = 1.0; }),
      with([](TrainOptions& o) { o.beta2 = -0.1; }),
      with([nan](TrainOptions& o) { o.beta2 = nan; }),
      with([](TrainOptions& o) { o.epsilon = 0.0; }),
      with([](TrainOptions& o) { o.epsilon = -1e-8; }),
      with([nan](TrainOptions& o) { o.epsilon = nan; }),
  };
  for (std::size_t i = 0; i < bad.size(); ++i)
    EXPECT_THROW(net.train_epoch(X, Y, bad[i], rng), std::invalid_argument)
        << "option set " << i;
  // The edges of each rule are accepted.
  const std::vector<TrainOptions> good{
      with([](TrainOptions& o) { o.epochs = 0; }),
      with([](TrainOptions& o) { o.beta1 = 0.0; }),
      with([](TrainOptions& o) { o.beta2 = 0.0; }),
      with([](TrainOptions& o) { o.epsilon = 1e-300; }),
  };
  for (std::size_t i = 0; i < good.size(); ++i)
    EXPECT_NO_THROW(net.train_epoch(X, Y, good[i], rng)) << "option set "
                                                          << i;
}

/// One frame of MC iterations through the dense window engine; iteration
/// t draws its analog noise from Rng::stream(noise_root, t).
std::vector<Vector> dense_frame(const CimMlp& cim, const Vector& x,
                                const std::vector<std::vector<Mask>>& sets,
                                std::uint64_t noise_root) {
  CimMlp::FrameBatch frame;
  frame.x = &x;
  frame.mask_sets = &sets;
  frame.noise_root = noise_root;
  CimMlp::WindowScratch scratch;
  std::vector<std::vector<Vector>> outs;
  cim.forward_window({frame}, nullptr, scratch, outs);
  return outs[0];
}

/// The same frame through the compute-reuse engine as ONE chain (no
/// refresh) visited in index order: a dense read at t = 0, then one delta
/// read per later iteration.
std::vector<Vector> reuse_frame(const CimMlp& cim, const Vector& x,
                                const std::vector<std::vector<Mask>>& sets,
                                std::uint64_t noise_root) {
  std::vector<Vector> outs;
  CimMlp::ReuseFrame frame;
  frame.x = &x;
  frame.mask_sets = &sets;
  frame.noise_root = noise_root;
  frame.outs = &outs;
  CimMlp::ReuseScratch scratch;
  cim.forward_reuse_window({frame}, nullptr, scratch);
  return outs;
}

class TrainedFixture : public ::testing::Test {
 protected:
  TrainedFixture() : rng_(23), net_(small_config(0.2, false), rng_) {
    for (int i = 0; i < 800; ++i) {
      Vector x{rng_.uniform(), rng_.uniform(), rng_.uniform(), rng_.uniform()};
      targets_.push_back({x[0] + 0.5 * x[1], x[2] - x[3]});
      inputs_.push_back(std::move(x));
    }
    TrainOptions opt;
    for (int e = 0; e < 50; ++e) net_.train_epoch(inputs_, targets_, opt, rng_);
  }

  Rng rng_;
  Mlp net_;
  std::vector<Vector> inputs_, targets_;
};

TEST_F(TrainedFixture, QuantErrorDecreasesWithBits) {
  auto mse_of = [&](int bits) {
    const QuantMlp q(net_, bits, bits, inputs_);
    double total = 0.0;
    for (std::size_t i = 0; i < 100; ++i) {
      const Vector ref = net_.forward(inputs_[i]);
      const Vector y = q.forward(inputs_[i]);
      for (std::size_t k = 0; k < y.size(); ++k)
        total += (y[k] - ref[k]) * (y[k] - ref[k]);
    }
    return total;
  };
  const double e4 = mse_of(4), e6 = mse_of(6), e8 = mse_of(8);
  EXPECT_GT(e4, e6);
  EXPECT_GT(e6, e8);
}

TEST_F(TrainedFixture, QuantAtHighBitsMatchesFloat) {
  const QuantMlp q(net_, 12, 12, inputs_);
  for (std::size_t i = 0; i < 50; ++i) {
    const Vector ref = net_.forward(inputs_[i]);
    const Vector y = q.forward(inputs_[i]);
    for (std::size_t k = 0; k < y.size(); ++k)
      EXPECT_NEAR(y[k], ref[k], 0.02);
  }
}

TEST_F(TrainedFixture, CimIdealTracksFloat) {
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 12;
  mc.analog_noise = false;
  Rng crng(29);
  const CimMlp cim(net_, mc, inputs_, crng);
  Rng arng(31);
  for (std::size_t i = 0; i < 30; ++i) {
    const Vector ref = net_.forward(inputs_[i]);
    const Vector y = cim.forward_deterministic(inputs_[i], arng);
    for (std::size_t k = 0; k < y.size(); ++k)
      EXPECT_NEAR(y[k], ref[k], 0.06);
  }
}

TEST_F(TrainedFixture, CimMaskedMatchesReferenceMasked) {
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 12;
  mc.analog_noise = false;
  Rng crng(37);
  const CimMlp cim(net_, mc, inputs_, crng);
  Rng mrng(41);
  const auto masks = net_.sample_masks([&] { return mrng.bernoulli(0.2); });
  const Vector ref = net_.forward_masked(inputs_[0], masks);
  const Vector y = dense_frame(cim, inputs_[0], {masks}, 43)[0];
  for (std::size_t k = 0; k < y.size(); ++k)
    EXPECT_NEAR(y[k], ref[k], 0.12);
}

TEST_F(TrainedFixture, ReuseEquivalentToDenseForwardNoiseFree) {
  // The core compute-reuse correctness property: with analog noise off
  // and a lossless ADC, the delta path must reproduce the dense masked
  // forward bit-for-bit across a sequence of masks.
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 14;
  mc.analog_noise = false;
  Rng crng(47);
  const CimMlp cim(net_, mc, inputs_, crng);
  Rng mrng(53);
  std::vector<std::vector<Mask>> sets;
  for (int t = 0; t < 12; ++t)
    sets.push_back(net_.sample_masks([&] { return mrng.bernoulli(0.3); }));
  const auto dense = dense_frame(cim, inputs_[0], sets, 59);
  const auto reused = reuse_frame(cim, inputs_[0], sets, 59);
  ASSERT_EQ(reused.size(), dense.size());
  for (std::size_t t = 0; t < dense.size(); ++t) {
    ASSERT_EQ(dense[t].size(), reused[t].size());
    for (std::size_t k = 0; k < dense[t].size(); ++k)
      EXPECT_NEAR(reused[t][k], dense[t][k], 1e-6) << "iteration " << t;
  }
}

TEST_F(TrainedFixture, ReuseSavesWordlinePulses) {
  cimsram::CimMacroConfig mc;
  mc.input_bits = 6;
  mc.weight_bits = 6;
  Rng crng(61);
  const CimMlp cim(net_, mc, inputs_, crng);
  Rng mrng(67);
  std::vector<std::vector<Mask>> mask_sets;
  for (int t = 0; t < 20; ++t)
    mask_sets.push_back(
        net_.sample_masks([&] { return mrng.bernoulli(0.5); }));
  // Dense baseline.
  cim.reset_stats();
  dense_frame(cim, inputs_[0], mask_sets, 71);
  const auto dense_pulses = cim.total_stats().wordline_pulses;
  // Reuse path on the same masks.
  cim.reset_stats();
  reuse_frame(cim, inputs_[0], mask_sets, 71);
  const auto reuse_pulses = cim.total_stats().wordline_pulses;
  EXPECT_LT(reuse_pulses, dense_pulses);
}

TEST(CimMlpInputDropout, ReuseEquivalenceWithInputSite) {
  // Same property for the input-site dropout configuration.
  Rng rng(73);
  MlpConfig cfg;
  cfg.layer_sizes = {6, 12, 3};
  cfg.dropout_p = 0.4;
  cfg.dropout_on_input = true;
  Mlp net(cfg, rng);
  std::vector<Vector> calib;
  for (int i = 0; i < 20; ++i)
    calib.push_back({rng.uniform(), rng.uniform(), rng.uniform(),
                     rng.uniform(), rng.uniform(), rng.uniform()});
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 14;
  mc.analog_noise = false;
  Rng crng(79);
  const CimMlp cim(net, mc, calib, crng);
  Rng mrng(83);
  std::vector<std::vector<Mask>> sets;
  for (int t = 0; t < 10; ++t)
    sets.push_back(net.sample_masks([&] { return mrng.bernoulli(0.4); }));
  const auto dense = dense_frame(cim, calib[0], sets, 89);
  const auto reused = reuse_frame(cim, calib[0], sets, 89);
  ASSERT_EQ(reused.size(), dense.size());
  for (std::size_t t = 0; t < dense.size(); ++t)
    for (std::size_t k = 0; k < dense[t].size(); ++k)
      EXPECT_NEAR(reused[t][k], dense[t][k], 1e-6) << "iteration " << t;
}

TEST(CimMlpSharded, ShardedLayersMatchMonolithicNoiseFree) {
  // A network whose first layer exceeds 64x64 runs on an array grid
  // behind the same CimMlp code path. With analog noise off and a
  // lossless ADC the only difference is the per-shard ADC range, so the
  // two executions must agree tightly (and reuse must still hold).
  Rng rng(113);
  MlpConfig cfg;
  cfg.layer_sizes = {80, 72, 3};
  cfg.dropout_p = 0.4;
  cfg.dropout_on_input = false;
  Mlp net(cfg, rng);
  std::vector<Vector> calib;
  for (int i = 0; i < 12; ++i) {
    Vector v(80);
    for (auto& e : v) e = rng.uniform();
    calib.push_back(std::move(v));
  }
  cimsram::CimMacroConfig mono;
  mono.input_bits = 8;
  mono.weight_bits = 8;
  mono.adc_bits = 14;
  mono.analog_noise = false;
  cimsram::CimMacroConfig sharded = mono;
  sharded.max_rows = 64;
  sharded.max_cols = 64;
  Rng c1(127), c2(127);
  const CimMlp cim_mono(net, mono, calib, c1);
  const CimMlp cim_shard(net, sharded, calib, c2);
  // Layer 0 is 72x80 -> a shard grid; layer 1 (3x72) splits row-wise too.
  EXPECT_EQ(cim_shard.macro(0).grid_rows(), 2);
  EXPECT_EQ(cim_shard.macro(0).grid_cols(), 2);
  EXPECT_EQ(cim_mono.macro(0).grid_rows(), 1);
  EXPECT_EQ(cim_mono.macro(0).grid_cols(), 1);

  Rng mrng(131);
  std::vector<std::vector<Mask>> sets;
  for (int t = 0; t < 6; ++t)
    sets.push_back(net.sample_masks([&] { return mrng.bernoulli(0.4); }));
  const auto ym = dense_frame(cim_mono, calib[0], sets, 137);
  const auto ys = dense_frame(cim_shard, calib[0], sets, 137);
  const auto yr = reuse_frame(cim_shard, calib[0], sets, 137);
  ASSERT_EQ(ym.size(), ys.size());
  ASSERT_EQ(yr.size(), ys.size());
  for (std::size_t t = 0; t < ys.size(); ++t) {
    ASSERT_EQ(ym[t].size(), ys[t].size());
    for (std::size_t k = 0; k < ym[t].size(); ++k) {
      EXPECT_NEAR(ys[t][k], ym[t][k], 2e-2) << "iteration " << t;
      EXPECT_NEAR(yr[t][k], ys[t][k], 2e-2) << "iteration " << t;
    }
  }
}

TEST(CimMlpNoise, AnalogNoiseAccumulatesAcrossReuse) {
  // With analog noise on, repeated delta updates drift relative to a
  // fresh dense evaluation — the trade-off the reuse ablation quantifies.
  Rng rng(97);
  MlpConfig cfg;
  cfg.layer_sizes = {8, 16, 2};
  cfg.dropout_p = 0.5;
  cfg.dropout_on_input = false;
  Mlp net(cfg, rng);
  std::vector<Vector> calib;
  for (int i = 0; i < 10; ++i) {
    Vector v(8);
    for (auto& e : v) e = rng.uniform();
    calib.push_back(v);
  }
  cimsram::CimMacroConfig mc;
  mc.noise_coeff = 0.2;
  Rng crng(101);
  const CimMlp cim(net, mc, calib, crng);
  Rng mrng(103);
  std::vector<std::vector<Mask>> sets;
  for (int t = 0; t < 30; ++t)
    sets.push_back(net.sample_masks([&] { return mrng.bernoulli(0.5); }));
  const auto reused = reuse_frame(cim, calib[0], sets, 107);
  const auto dense = dense_frame(cim, calib[0], sets, 107);
  double drift = 0.0;
  for (std::size_t t = 0; t < dense.size(); ++t)
    for (std::size_t k = 0; k < dense[t].size(); ++k)
      drift += std::abs(reused[t][k] - dense[t][k]);
  EXPECT_GT(drift, 0.0);
}

}  // namespace
}  // namespace cimnav::nn
