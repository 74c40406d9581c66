// Float MC-Dropout reference for the CIM tests.
//
// The masked forward pass of a trained nn::Mlp (inverted dropout, scale
// 1/(1-p) on kept units) and the T-sample float predictor built on it.
// The library runs MC-Dropout only through the CIM macros (nn::CimMlp,
// bnn::mc_predict_cim); these are the full-precision oracles the tests
// compare those paths against.
#pragma once

#include <cstddef>
#include <vector>

#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "core/error.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace cimnav::oracle {

/// Masked forward pass. `masks` holds one mask per dropout site:
/// masks[0] over the input (if enabled), then one per hidden layer, each
/// applied to the post-ReLU activations.
inline nn::Vector forward_masked(const nn::Mlp& net, const nn::Vector& x,
                                 const std::vector<nn::Mask>& masks) {
  CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(net.input_size()),
                 "input size mismatch");
  CIMNAV_REQUIRE(masks.size() ==
                     static_cast<std::size_t>(net.dropout_site_count()),
                 "mask count mismatch");
  const double keep_scale = 1.0 / (1.0 - net.config().dropout_p);
  std::size_t site = 0;
  nn::Vector a = x;
  if (net.config().dropout_on_input) {
    const nn::Mask& m = masks[site++];
    for (std::size_t i = 0; i < a.size(); ++i)
      a[i] = m[i] ? a[i] * keep_scale : 0.0;
  }
  for (int l = 0; l < net.layer_count(); ++l) {
    nn::Vector z = net.weights(l).matvec(a);
    const nn::Vector& b = net.biases(l);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
    if (l + 1 < net.layer_count()) {
      for (double& v : z) v = v > 0.0 ? v : 0.0;  // ReLU
      const nn::Mask& m = masks[site++];
      for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = m[i] ? z[i] * keep_scale : 0.0;
    }
    a = std::move(z);
  }
  return a;
}

/// Float MC-Dropout: `iterations` masked passes with masks drawn from
/// `masks` (site by site, as nn::Mlp::sample_masks draws them), reduced
/// to the per-output mean and sample variance in iteration order.
inline bnn::McPrediction mc_predict_float(const nn::Mlp& net,
                                          const nn::Vector& x, int iterations,
                                          double dropout_p,
                                          bnn::MaskSource& masks) {
  CIMNAV_REQUIRE(iterations >= 1, "need at least one iteration");
  const auto n_out = static_cast<std::size_t>(net.output_size());
  bnn::McPrediction pred;
  pred.mean.assign(n_out, 0.0);
  pred.variance.assign(n_out, 0.0);
  for (int t = 1; t <= iterations; ++t) {
    const nn::Vector y = forward_masked(
        net, x, net.sample_masks([&] { return masks.draw(dropout_p); }));
    for (std::size_t i = 0; i < n_out; ++i) {
      const double delta = y[i] - pred.mean[i];
      pred.mean[i] += delta / static_cast<double>(t);
      pred.variance[i] += delta * (y[i] - pred.mean[i]);
    }
  }
  for (double& v : pred.variance)
    v = iterations > 1 ? v / static_cast<double>(iterations - 1) : 0.0;
  pred.samples = iterations;
  return pred;
}

}  // namespace cimnav::oracle
