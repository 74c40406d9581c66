#include "circuit/array.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/error.hpp"

namespace cimnav::circuit {

std::vector<int> allocate_columns(const std::vector<double>& weights,
                                  int total) {
  CIMNAV_REQUIRE(!weights.empty(), "need at least one component");
  CIMNAV_REQUIRE(total >= static_cast<int>(weights.size()),
                 "need at least one column per component");
  double sum = 0.0;
  for (double w : weights) {
    CIMNAV_REQUIRE(w >= 0.0, "weights must be non-negative");
    sum += w;
  }
  CIMNAV_REQUIRE(sum > 0.0, "total weight must be positive");

  const int n = static_cast<int>(weights.size());
  std::vector<int> alloc(static_cast<std::size_t>(n), 1);  // floor of one column each
  int remaining = total - n;
  // Ideal fractional share beyond the guaranteed 1.
  std::vector<double> share(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    share[static_cast<std::size_t>(i)] =
        weights[static_cast<std::size_t>(i)] / sum * static_cast<double>(remaining);
  std::vector<double> remainder(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int fl = static_cast<int>(share[static_cast<std::size_t>(i)]);
    alloc[static_cast<std::size_t>(i)] += fl;
    remaining -= fl;
    remainder[static_cast<std::size_t>(i)] =
        share[static_cast<std::size_t>(i)] - static_cast<double>(fl);
  }
  // Hand out the leftovers to the largest remainders.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return remainder[static_cast<std::size_t>(a)] >
           remainder[static_cast<std::size_t>(b)];
  });
  for (int i = 0; remaining > 0; ++i, --remaining)
    ++alloc[static_cast<std::size_t>(order[static_cast<std::size_t>(i % n)])];
  return alloc;
}

namespace {

/// Program-and-verify: trims the branch against its own mismatched devices
/// so the achieved center/sigma track the targets. First-order updates —
/// center responds ~1:1 to the differential knob, sigma ~ -0.5:1 to the
/// common-mode knob.
void trim_branch(InverterBranch& branch, double base_dn, double base_dp,
                 double target_center, double target_sigma, int iterations) {
  double s = 0.5 * (base_dn + base_dp);
  double d = 0.5 * (base_dn - base_dp);
  branch.program(s + d, s - d);
  for (int it = 0; it < iterations; ++it) {
    const double ec = branch.center() - target_center;
    const double es = branch.sigma() - target_sigma;
    d -= ec;          // center moves ~1:1 with d
    s += es * 2.0;    // sigma shrinks ~0.5 V/V as s grows
    s = std::clamp(s, -0.3, 0.5);
    d = std::clamp(d, -0.7, 0.7);
    branch.program(s + d, s - d);
  }
}

}  // namespace

CimLikelihoodArray::CimLikelihoodArray(
    const LikelihoodArrayConfig& config,
    const std::vector<VoltageComponent>& components, core::Rng& rng)
    : config_(config),
      dac_(config.dac_bits, config.v_margin_v, config.vdd_v - config.v_margin_v),
      adc_(config.adc_bits,
           config.peak_current_a * static_cast<double>(config.total_columns) *
               config.adc_floor_fraction,
           config.peak_current_a * static_cast<double>(config.total_columns)) {
  CIMNAV_REQUIRE(!components.empty(), "need at least one component");
  CIMNAV_REQUIRE(config.dac_bits <= 10,
                 "dac_bits must be at most 10 (32-bit code-triple keys)");
  CIMNAV_REQUIRE(config.total_columns >= static_cast<int>(components.size()),
                 "more components than columns");
  CIMNAV_REQUIRE(config.v_margin_v >= 0.0 &&
                     2.0 * config.v_margin_v < config.vdd_v,
                 "margin leaves no usable window");

  std::vector<double> weights;
  weights.reserve(components.size());
  for (const auto& c : components) weights.push_back(c.weight);
  columns_per_component_ = allocate_columns(weights, config.total_columns);

  const SupplyParams supply{config.vdd_v};
  const InverterProgrammer programmer(config.nmos, config.pmos, supply);
  recip_.resize(row(3, 0));  // rows of all three axes
  std::size_t col = 0;

  for (std::size_t k = 0; k < components.size(); ++k) {
    const auto& comp = components[k];
    // Solve programming once per component on ideal devices...
    std::array<InverterProgrammer::Programming, 3> prog;
    for (int axis = 0; axis < 3; ++axis) {
      const double mu = core::clamp(comp.center_v[axis], config.v_margin_v,
                                    config.vdd_v - config.v_margin_v);
      const double sg = std::max(comp.sigma_v[axis], 1e-3);
      prog[static_cast<std::size_t>(axis)] = programmer.solve(mu, sg);
    }
    // ...then instantiate each replicated column with its own mismatch.
    for (int rep = 0; rep < columns_per_component_[k]; ++rep) {
      SixTransistorInverter inv(config.nmos, config.pmos, supply);
      for (int axis = 0; axis < 3; ++axis) {
        auto& branch = inv.branch(axis);
        const auto& p = prog[static_cast<std::size_t>(axis)];
        branch.apply_mismatch(config.mismatch_sigma_vt_v, rng);
        branch.program(p.delta_vt_n_v, p.delta_vt_p_v);
        if (config.program_verify) {
          trim_branch(branch, p.delta_vt_n_v, p.delta_vt_p_v,
                      p.achieved_center_v, p.achieved_sigma_v, 3);
        }
        // Size the branch so its peak current hits the target: equal peaks
        // make column replication an exact weight encoding.
        const double peak = branch.peak_current();
        if (peak > 0.0)
          branch.set_size_factor(config.peak_current_a * 3.0 / peak);
        // (factor 3: three series branches harmonically combine to ~1/3.)
      }
      // Tabulate the column's reciprocal response over all DAC codes.
      for (int axis = 0; axis < 3; ++axis) {
        for (std::uint32_t code = 0; code < dac_.levels(); ++code) {
          const double i = inv.branch(axis).current(dac_.decode(code));
          recip_[row(static_cast<std::size_t>(axis), code) + col] =
              i <= 0.0 ? std::numeric_limits<double>::infinity() : 1.0 / i;
        }
      }
      ++col;
    }
  }
}

double CimLikelihoodArray::ideal_current(std::uint32_t key) const {
  const auto b = static_cast<unsigned>(dac_.bits());
  CIMNAV_REQUIRE(key >> 3 * b == 0, "code-triple key out of range");
  const std::uint32_t mask = dac_.levels() - 1;
  const double* rx = recip_.data() + row(0, key & mask);
  const double* ry = recip_.data() + row(1, key >> b & mask);
  const double* rz = recip_.data() + row(2, key >> 2 * b);
  const std::size_t n_cols = static_cast<std::size_t>(config_.total_columns);
  double total = 0.0;
  for (std::size_t c = 0; c < n_cols; ++c)
    total += 1.0 / (rx[c] + ry[c] + rz[c]);
  return total;
}

double CimLikelihoodArray::read_current(const core::Vec3& point_v,
                                        core::Rng& rng) const {
  return noisy_current(ideal_current(point_v), config_.noise, rng);
}

double CimLikelihoodArray::read_log_likelihood(const core::Vec3& point_v,
                                               core::Rng& rng) const {
  return adc_.read_log(read_current(point_v, rng));
}

}  // namespace cimnav::circuit
