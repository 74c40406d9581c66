// Multilayer perceptron with dropout, trained by backprop + Adam.
//
// This is the regression model of the Bayesian VO pipeline (paper
// Sec. III): dropout applied at the input and after every hidden layer,
// with the usual "inverted" scaling so that the expected forward pass is
// mask-independent. At inference nn::CimMlp runs the same masked forward
// on the CIM macros for MC-Dropout sampling (Gal & Ghahramani: dropout at
// test time realizes approximate variational inference).
#pragma once

#include <functional>
#include <vector>

#include "core/rng.hpp"
#include "nn/tensor.hpp"

namespace cimnav::core {
class ThreadPool;
}  // namespace cimnav::core

namespace cimnav::nn {

/// Architecture/regularization configuration.
struct MlpConfig {
  std::vector<int> layer_sizes;  ///< e.g. {96, 64, 32, 4}
  double dropout_p = 0.5;        ///< drop probability, input + hidden
  bool dropout_on_input = true;  ///< enables the compute-reuse locus
};

/// Adam optimizer hyperparameters. Mlp::train_epoch rejects epochs < 0,
/// batch_size < 1, a learning rate that is not finite and positive,
/// beta1 or beta2 outside [0, 1), and epsilon <= 0.
struct TrainOptions {
  int epochs = 60;
  int batch_size = 32;
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  bool shuffle = true;
};

class Mlp {
 public:
  /// He-uniform initialization.
  Mlp(const MlpConfig& config, core::Rng& rng);

  const MlpConfig& config() const { return config_; }
  int input_size() const { return config_.layer_sizes.front(); }
  int output_size() const { return config_.layer_sizes.back(); }
  /// Number of weight layers (= layer_sizes.size() - 1).
  int layer_count() const { return static_cast<int>(weights_.size()); }

  const Matrix& weights(int layer) const;
  const Vector& biases(int layer) const;

  /// Deterministic forward pass (no dropout; the "classical" network).
  Vector forward(const Vector& x) const;

  /// Number of dropout sites (size expected of `masks`).
  int dropout_site_count() const;

  /// Width of dropout site `s` (input size or hidden layer size).
  int dropout_site_width(int site) const;

  /// Draws a full set of Bernoulli(1-p) keep-masks using `gen`, a callable
  /// returning true with probability p_drop when invoked.
  std::vector<Mask> sample_masks(
      const std::function<bool()>& drop_draw) const;

  /// One epoch of minibatch Adam on MSE loss; returns mean training loss.
  /// Dropout is active during training (same sites as inference). Every
  /// input must hold input_size() finite values and every target
  /// output_size() finite values; bad samples or options are rejected
  /// before any rng draw or update. Each
  /// batch's samples run forward/backward over `pool` (nullptr = serial)
  /// and its weight rows take their Adam step over it; the resulting
  /// weights, loss and `rng` state are bit-identical at any pool size.
  double train_epoch(const std::vector<Vector>& inputs,
                     const std::vector<Vector>& targets,
                     const TrainOptions& opt, core::Rng& rng,
                     core::ThreadPool* pool = nullptr);

  /// Mean squared error over a dataset (deterministic forward).
  double evaluate_mse(const std::vector<Vector>& inputs,
                      const std::vector<Vector>& targets) const;

 private:
  struct AdamSlot {
    Matrix m_w, v_w;
    Vector m_b, v_b;
  };

  MlpConfig config_;
  std::vector<Matrix> weights_;  ///< weights_[l]: (out x in)
  std::vector<Vector> biases_;
  std::vector<AdamSlot> adam_;
  std::int64_t adam_steps_ = 0;
};

}  // namespace cimnav::nn
