#include "prob/divergence.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cimnav::prob {

double mc_kl_divergence(const DensityView& p, const DensityView& q,
                        int n_samples, core::Rng& rng) {
  CIMNAV_REQUIRE(n_samples > 0, "need at least one sample");
  double s = 0.0;
  for (int i = 0; i < n_samples; ++i) {
    const core::Vec3 x = p.sample(rng);
    s += p.log_pdf(x) - q.log_pdf(x);
  }
  return s / static_cast<double>(n_samples);
}

double grid_field_rmse(const std::function<double(const core::Vec3&)>& f,
                       const std::function<double(const core::Vec3&)>& g,
                       const core::Vec3& lo, const core::Vec3& hi, int n) {
  CIMNAV_REQUIRE(n >= 2, "grid needs at least two points per axis");
  double ss = 0.0;
  std::size_t count = 0;
  for (int ix = 0; ix < n; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      for (int iz = 0; iz < n; ++iz) {
        const core::Vec3 p{
            core::lerp(lo.x, hi.x, static_cast<double>(ix) / (n - 1)),
            core::lerp(lo.y, hi.y, static_cast<double>(iy) / (n - 1)),
            core::lerp(lo.z, hi.z, static_cast<double>(iz) / (n - 1))};
        const double d = f(p) - g(p);
        ss += d * d;
        ++count;
      }
    }
  }
  return std::sqrt(ss / static_cast<double>(count));
}

}  // namespace cimnav::prob
