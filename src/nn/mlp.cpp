#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.hpp"

namespace cimnav::nn {
namespace {

double relu(double x) { return x > 0.0 ? x : 0.0; }

void require_valid(const TrainOptions& opt) {
  CIMNAV_REQUIRE(opt.batch_size > 0, "batch size must be positive");
  CIMNAV_REQUIRE(opt.epochs >= 0, "epoch count must be non-negative");
  CIMNAV_REQUIRE(std::isfinite(opt.learning_rate) && opt.learning_rate > 0.0,
                 "learning rate must be finite and positive");
  CIMNAV_REQUIRE(opt.beta1 >= 0.0 && opt.beta1 < 1.0,
                 "Adam beta1 must lie in [0, 1)");
  CIMNAV_REQUIRE(opt.beta2 >= 0.0 && opt.beta2 < 1.0,
                 "Adam beta2 must lie in [0, 1)");
  CIMNAV_REQUIRE(opt.epsilon > 0.0, "Adam epsilon must be positive");
}

bool all_finite(const Vector& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double e) { return std::isfinite(e); });
}

/// One Adam step's hyperparameters and bias corrections, held by value so
/// adam_update's loop keeps them in registers and vectorizes.
struct AdamStep {
  double beta1, beta2, learning_rate, epsilon;
  double bc1, bc2;  ///< bias corrections 1 - beta^t
  double inv_batch;
};

/// Adam update of n parameters from their gradient summed over the batch.
void adam_update(const AdamStep k, const double* grad_sum, double* w,
                 double* m, double* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad_sum[i] * k.inv_batch;
    m[i] = k.beta1 * m[i] + (1.0 - k.beta1) * g;
    v[i] = k.beta2 * v[i] + (1.0 - k.beta2) * g * g;
    w[i] -= k.learning_rate * (m[i] / k.bc1) /
            (std::sqrt(v[i] / k.bc2) + k.epsilon);
  }
}

}  // namespace

Mlp::Mlp(const MlpConfig& config, core::Rng& rng) : config_(config) {
  CIMNAV_REQUIRE(config.layer_sizes.size() >= 2,
                 "need at least input and output layers");
  for (int s : config.layer_sizes)
    CIMNAV_REQUIRE(s > 0, "layer sizes must be positive");
  CIMNAV_REQUIRE(config.dropout_p >= 0.0 && config.dropout_p < 1.0,
                 "dropout probability must lie in [0, 1)");

  const std::size_t layers = config.layer_sizes.size() - 1;
  weights_.reserve(layers);
  biases_.reserve(layers);
  adam_.resize(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    const int fan_in = config.layer_sizes[l];
    const int fan_out = config.layer_sizes[l + 1];
    Matrix w(fan_out, fan_in);
    const double bound = std::sqrt(6.0 / static_cast<double>(fan_in));
    for (double& v : w.data()) v = rng.uniform(-bound, bound);
    weights_.push_back(std::move(w));
    biases_.emplace_back(static_cast<std::size_t>(fan_out), 0.0);
    adam_[l].m_w = Matrix(fan_out, fan_in);
    adam_[l].v_w = Matrix(fan_out, fan_in);
    adam_[l].m_b.assign(static_cast<std::size_t>(fan_out), 0.0);
    adam_[l].v_b.assign(static_cast<std::size_t>(fan_out), 0.0);
  }
}

const Matrix& Mlp::weights(int layer) const {
  CIMNAV_REQUIRE(layer >= 0 && layer < layer_count(), "layer out of range");
  return weights_[static_cast<std::size_t>(layer)];
}

const Vector& Mlp::biases(int layer) const {
  CIMNAV_REQUIRE(layer >= 0 && layer < layer_count(), "layer out of range");
  return biases_[static_cast<std::size_t>(layer)];
}

int Mlp::dropout_site_count() const {
  // Input (optional) + every hidden layer.
  return (config_.dropout_on_input ? 1 : 0) + layer_count() - 1;
}

int Mlp::dropout_site_width(int site) const {
  CIMNAV_REQUIRE(site >= 0 && site < dropout_site_count(),
                 "dropout site out of range");
  if (config_.dropout_on_input) {
    if (site == 0) return config_.layer_sizes.front();
    return config_.layer_sizes[static_cast<std::size_t>(site)];
  }
  return config_.layer_sizes[static_cast<std::size_t>(site) + 1];
}

std::vector<Mask> Mlp::sample_masks(
    const std::function<bool()>& drop_draw) const {
  std::vector<Mask> masks(static_cast<std::size_t>(dropout_site_count()));
  for (int s = 0; s < dropout_site_count(); ++s) {
    Mask& m = masks[static_cast<std::size_t>(s)];
    m.resize(static_cast<std::size_t>(dropout_site_width(s)));
    for (auto& bit : m) bit = drop_draw() ? 0 : 1;
  }
  return masks;
}

Vector Mlp::forward(const Vector& x) const {
  CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(input_size()),
                 "input size mismatch");
  Vector a = x;
  for (int l = 0; l < layer_count(); ++l) {
    Vector z = weights_[static_cast<std::size_t>(l)].matvec(a);
    const Vector& b = biases_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
    if (l + 1 < layer_count())
      for (double& v : z) v = relu(v);
    a = std::move(z);
  }
  return a;
}

double Mlp::train_epoch(const std::vector<Vector>& inputs,
                        const std::vector<Vector>& targets,
                        const TrainOptions& opt, core::Rng& rng,
                        core::ThreadPool* pool) {
  CIMNAV_REQUIRE(inputs.size() == targets.size() && !inputs.empty(),
                 "dataset must be non-empty and paired");
  require_valid(opt);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    CIMNAV_REQUIRE(
        inputs[i].size() == static_cast<std::size_t>(input_size()),
        "training input width must equal the network's input size");
    CIMNAV_REQUIRE(
        targets[i].size() == static_cast<std::size_t>(output_size()),
        "training target width must equal the network's output size");
    CIMNAV_REQUIRE(all_finite(inputs[i]) && all_finite(targets[i]),
                   "training samples must be finite");
  }

  const std::size_t n = inputs.size();
  std::vector<std::size_t> order;
  if (opt.shuffle) {
    rng.permutation_into(n, order);
  } else {
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
  }

  // Flat per-call buffers with one slot per batch sample. A slot's
  // activations are [input, layer 1, ..., output] (post-dropout), its
  // deltas [layer 1, ..., output] (loss gradient w.r.t. each layer's
  // pre-activation); act_off / delta_off index layer l inside a slot.
  const int layers = layer_count();
  std::vector<std::size_t> act_off(1, 0);
  for (int width : config_.layer_sizes)
    act_off.push_back(act_off.back() + static_cast<std::size_t>(width));
  const std::size_t act_stride = act_off.back();
  const auto delta_off = [&](int l) {  // delta of layer l's output
    return act_off[static_cast<std::size_t>(l) + 1] - act_off[1];
  };
  const std::size_t delta_stride = act_stride - act_off[1];
  std::size_t mask_stride = 0;
  for (int s = 0; s < dropout_site_count(); ++s)
    mask_stride += static_cast<std::size_t>(dropout_site_width(s));
  // Weight rows of every layer, numbered layer by layer: layer l owns
  // rows [row_off[l], row_off[l + 1]).
  std::vector<std::size_t> row_off(1, 0);
  for (const Matrix& w : weights_)
    row_off.push_back(row_off.back() + static_cast<std::size_t>(w.rows()));

  const std::size_t max_batch =
      std::min<std::size_t>(static_cast<std::size_t>(opt.batch_size), n);
  std::vector<std::uint8_t> masks(max_batch * mask_stride);
  Vector acts(max_batch * act_stride);
  Vector deltas(max_batch * delta_stride);
  Vector sample_loss(max_batch);
  std::vector<Matrix> grad_w;
  for (const Matrix& w : weights_) grad_w.emplace_back(w.rows(), w.cols());

  const double keep_scale = 1.0 / (1.0 - config_.dropout_p);
  const double out_size = static_cast<double>(output_size());
  std::size_t batch = 0;
  std::size_t processed = 0;

  // Forward with training dropout, loss, and backward deltas for batch
  // sample bi; touches only that sample's slots.
  const auto run_sample = [&](std::size_t bi) {
    const Vector& x = inputs[order[processed + bi]];
    const Vector& t = targets[order[processed + bi]];
    const std::uint8_t* m = masks.data() + bi * mask_stride;
    double* act = acts.data() + bi * act_stride;
    double* delta = deltas.data() + bi * delta_stride;

    if (config_.dropout_on_input) {
      for (std::size_t i = 0; i < x.size(); ++i)
        act[i] = m[i] ? x[i] * keep_scale : 0.0;
      m += x.size();
    } else {
      std::copy(x.begin(), x.end(), act);
    }
    for (int l = 0; l < layers; ++l) {
      const auto lu = static_cast<std::size_t>(l);
      const double* a = act + act_off[lu];
      double* z = act + act_off[lu + 1];
      weights_[lu].matvec_into(a, z);
      const Vector& b = biases_[lu];
      for (std::size_t i = 0; i < b.size(); ++i) z[i] += b[i];
      if (l + 1 < layers) {
        for (std::size_t i = 0; i < b.size(); ++i) z[i] = relu(z[i]);
        for (std::size_t i = 0; i < b.size(); ++i)
          z[i] = m[i] ? z[i] * keep_scale : 0.0;
        m += b.size();
      }
    }

    // Loss and output delta (MSE, 1/2 factor absorbed).
    const double* y = act + act_off[static_cast<std::size_t>(layers)];
    double* d_out = delta + delta_off(layers - 1);
    double loss = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const double e = y[i] - t[i];
      loss += e * e;
      d_out[i] = 2.0 * e / out_size;
    }
    sample_loss[bi] = loss / out_size;

    // Propagate through W, the dropout gate and the ReLU of layer l-1. A
    // hidden activation is positive exactly when its unit was kept and
    // its pre-activation was positive, so it stands in for both gates.
    for (int l = layers - 1; l > 0; --l) {
      const Matrix& w = weights_[static_cast<std::size_t>(l)];
      double* prev = delta + delta_off(l - 1);
      w.matvec_transposed_into(delta + delta_off(l), prev);
      const double* a = act + act_off[static_cast<std::size_t>(l)];
      for (int i = 0; i < w.cols(); ++i)
        prev[i] *= a[i] > 0.0 ? keep_scale : 0.0;
    }
  };

  // Batch gradient of one weight row (summed over samples in batch
  // order, as a serial loop would) followed by its Adam step.
  AdamStep step{opt.beta1, opt.beta2, opt.learning_rate, opt.epsilon,
                0.0,       0.0,       0.0};
  const auto update_row = [&](std::size_t global_row) {
    const int l = static_cast<int>(
        std::upper_bound(row_off.begin(), row_off.end(), global_row) -
        row_off.begin() - 1);
    const auto lu = static_cast<std::size_t>(l);
    const std::size_t r = global_row - row_off[lu];
    const auto cols = static_cast<std::size_t>(weights_[lu].cols());
    double* gw = grad_w[lu].data().data() + r * cols;
    std::fill(gw, gw + cols, 0.0);
    double gb = 0.0;
    for (std::size_t bi = 0; bi < batch; ++bi) {
      const double d = deltas[bi * delta_stride + delta_off(l) + r];
      const double* a = acts.data() + bi * act_stride + act_off[lu];
      gb += d;
      for (std::size_t c = 0; c < cols; ++c) gw[c] += d * a[c];
    }

    AdamSlot& slot = adam_[lu];
    adam_update(step, gw, weights_[lu].data().data() + r * cols,
                slot.m_w.data().data() + r * cols,
                slot.v_w.data().data() + r * cols, cols);
    adam_update(step, &gb, &biases_[lu][r], &slot.m_b[r], &slot.v_b[r], 1);
  };

  const auto run_over = [pool](std::size_t count, std::size_t grain,
                               const auto& body) {
    const auto chunk = [&body](std::size_t begin, std::size_t end, int) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    };
    if (pool != nullptr)
      pool->parallel_for(count, grain, chunk);
    else
      chunk(0, count, 0);
  };

  double total_loss = 0.0;
  while (processed < n) {
    batch = std::min(max_batch, n - processed);
    // Dropout masks in the historical draw order: sample by sample, site
    // by site, one Bernoulli per unit.
    for (std::size_t i = 0; i < batch * mask_stride; ++i)
      masks[i] = rng.bernoulli(config_.dropout_p) ? 0 : 1;

    run_over(batch, 1, run_sample);
    for (std::size_t bi = 0; bi < batch; ++bi) total_loss += sample_loss[bi];

    ++adam_steps_;
    step.bc1 = 1.0 - std::pow(opt.beta1, static_cast<double>(adam_steps_));
    step.bc2 = 1.0 - std::pow(opt.beta2, static_cast<double>(adam_steps_));
    step.inv_batch = 1.0 / static_cast<double>(batch);
    run_over(row_off.back(), 8, update_row);
    processed += batch;
  }
  return total_loss / static_cast<double>(n);
}

double Mlp::evaluate_mse(const std::vector<Vector>& inputs,
                         const std::vector<Vector>& targets) const {
  CIMNAV_REQUIRE(inputs.size() == targets.size() && !inputs.empty(),
                 "dataset must be non-empty and paired");
  double total = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Vector y = forward(inputs[i]);
    double s = 0.0;
    for (std::size_t k = 0; k < y.size(); ++k) {
      const double e = y[k] - targets[i][k];
      s += e * e;
    }
    total += s / static_cast<double>(y.size());
  }
  return total / static_cast<double>(inputs.size());
}

}  // namespace cimnav::nn
