// Micro-benchmarks for the simulator's hot paths: likelihood evaluation on
// the inverter array, particle-filter steps, CIM macro matrix-vector
// products, and full MC-Dropout predictions through the batched engine.
// These measure the *simulator*, not the modeled hardware — engineering
// numbers for users extending the library.
//
// The headline comparison pits the batched multi-threaded engine against a
// faithful port of the seed (pre-engine) execution path: per-call bit-plane
// allocation, Box-Muller noise from one shared stream, scalar loops, and
// strictly serial MC iterations. Results are written to BENCH_micro.json.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "circuit/array.hpp"
#include "cimsram/backend.hpp"
#include "cimsram/cim_macro.hpp"
#include "conformance/conformance.hpp"
#include "core/thread_pool.hpp"
#include "filter/particle_filter.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"
#include "prob/gmm.hpp"
#include "prob/hmg.hpp"
#include "prob/logspace.hpp"
#include "support/heap_spy.hpp"
#include "vision/depth.hpp"

namespace {

using namespace cimnav;

// ---------------------------------------------------------------------------
// Faithful port of the seed CimMacro/CimMlp hot path (pre-engine): used as
// the benchmark baseline so the engine's speedup is measured against the
// algorithm this PR replaced, compiled with identical flags.
// ---------------------------------------------------------------------------

class SeedMacro {
 public:
  SeedMacro(const std::vector<double>& weights, int n_out, int n_in,
            const cimsram::CimMacroConfig& config, double input_scale)
      : config_(config), n_in_(n_in), n_out_(n_out),
        input_scale_(input_scale) {
    double w_max = 0.0;
    for (double w : weights) w_max = std::max(w_max, std::abs(w));
    const int mag_max = (1 << (config.weight_bits - 1)) - 1;
    weight_scale_ = w_max > 0.0 ? w_max / static_cast<double>(mag_max) : 1.0;
    words_ = (n_in + 63) / 64;
    const int planes = config.weight_bits - 1;
    columns_.resize(static_cast<std::size_t>(n_out));
    for (int j = 0; j < n_out; ++j) {
      auto& col = columns_[static_cast<std::size_t>(j)];
      col.pos.resize(static_cast<std::size_t>(planes));
      col.neg.resize(static_cast<std::size_t>(planes));
      for (auto& p : col.pos)
        p.bits.assign(static_cast<std::size_t>(words_), 0);
      for (auto& p : col.neg)
        p.bits.assign(static_cast<std::size_t>(words_), 0);
      for (int i = 0; i < n_in; ++i) {
        const double w =
            weights[static_cast<std::size_t>(j) *
                        static_cast<std::size_t>(n_in) +
                    static_cast<std::size_t>(i)];
        int q = static_cast<int>(std::lround(w / weight_scale_));
        q = std::clamp(q, -mag_max, mag_max);
        const int mag = std::abs(q);
        auto& side = q >= 0 ? col.pos : col.neg;
        for (int p = 0; p < planes; ++p) {
          if ((mag >> p) & 1)
            side[static_cast<std::size_t>(p)]
                .bits[static_cast<std::size_t>(i / 64)] |=
                (std::uint64_t{1} << (i % 64));
        }
      }
    }
  }

  int n_in() const { return n_in_; }

  std::vector<double> matvec(const std::vector<double>& x,
                             const std::vector<std::uint8_t>& in_mask,
                             const std::vector<std::uint8_t>& out_mask,
                             core::Rng& rng) const {
    // Per-call gate + bit-plane allocation, exactly like the seed.
    std::vector<std::uint64_t> gate(static_cast<std::size_t>(words_), 0);
    for (int i = 0; i < n_in_; ++i) {
      if (in_mask.empty() || in_mask[static_cast<std::size_t>(i)])
        gate[static_cast<std::size_t>(i / 64)] |=
            (std::uint64_t{1} << (i % 64));
    }
    std::vector<std::vector<std::uint64_t>> xbits(
        static_cast<std::size_t>(config_.input_bits),
        std::vector<std::uint64_t>(static_cast<std::size_t>(words_), 0));
    std::uint64_t active_rows = 0;
    for (int i = 0; i < n_in_; ++i) {
      const bool gated =
          (gate[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1;
      if (!gated) continue;
      ++active_rows;
      const int max_code = (1 << config_.input_bits) - 1;
      const int code = static_cast<int>(
          std::lround(x[static_cast<std::size_t>(i)] / input_scale_));
      const auto q =
          static_cast<std::uint32_t>(std::clamp(code, 0, max_code));
      for (int b = 0; b < config_.input_bits; ++b) {
        if ((q >> b) & 1)
          xbits[static_cast<std::size_t>(b)]
               [static_cast<std::size_t>(i / 64)] |=
              (std::uint64_t{1} << (i % 64));
      }
    }
    const int planes = config_.weight_bits - 1;
    const double adc_levels =
        static_cast<double>((1 << config_.adc_bits) - 1);
    const double adc_step = static_cast<double>(n_in_) / adc_levels;
    std::vector<double> y(static_cast<std::size_t>(n_out_), 0.0);
    for (int j = 0; j < n_out_; ++j) {
      if (!out_mask.empty() && !out_mask[static_cast<std::size_t>(j)])
        continue;
      const auto& col = columns_[static_cast<std::size_t>(j)];
      double acc = 0.0;
      for (int sign = 0; sign < 2; ++sign) {
        const auto& side = sign == 0 ? col.pos : col.neg;
        for (int p = 0; p < planes; ++p) {
          for (int b = 0; b < config_.input_bits; ++b) {
            int pop = 0;
            const auto& pb = side[static_cast<std::size_t>(p)].bits;
            const auto& xb = xbits[static_cast<std::size_t>(b)];
            for (std::size_t w = 0; w < pb.size(); ++w)
              pop += std::popcount(pb[w] & xb[w]);
            double count = pop;
            if (config_.analog_noise && active_rows > 0) {
              // Box-Muller normal from the shared stream (seed rng path).
              count += rng.normal(
                  0.0, config_.noise_coeff *
                           std::sqrt(static_cast<double>(active_rows)));
            }
            double code = std::round(count / adc_step);
            code = std::clamp(code, 0.0, adc_levels);
            count = code * adc_step;
            acc += (sign == 0 ? 1.0 : -1.0) * count *
                   static_cast<double>(1 << b) * static_cast<double>(1 << p);
          }
        }
      }
      y[static_cast<std::size_t>(j)] = acc * weight_scale_ * input_scale_;
    }
    return y;
  }

 private:
  struct Plane {
    std::vector<std::uint64_t> bits;
  };
  struct Column {
    std::vector<Plane> pos, neg;
  };
  cimsram::CimMacroConfig config_;
  int n_in_ = 0, n_out_ = 0, words_ = 0;
  double weight_scale_ = 1.0, input_scale_ = 1.0;
  std::vector<Column> columns_;
};

struct SeedMlp {
  std::vector<SeedMacro> macros;
  std::vector<nn::Vector> biases;
  double keep_scale = 2.0;
  bool dropout_on_input = false;

  nn::Vector forward(const nn::Vector& x, const std::vector<nn::Mask>& masks,
                     core::Rng& rng) const {
    const int n_layers = static_cast<int>(macros.size());
    std::size_t site = 0;
    const nn::Mask empty;
    const nn::Mask& in0 = dropout_on_input ? masks[site++] : empty;
    nn::Vector a = x;
    if (dropout_on_input) {
      for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = in0[i] ? a[i] * keep_scale : 0.0;
    }
    nn::Mask row_mask = in0;
    for (int l = 0; l < n_layers; ++l) {
      const bool has_hidden_mask = l + 1 < n_layers;
      const nn::Mask& col_mask = has_hidden_mask ? masks[site] : empty;
      nn::Vector z = macros[static_cast<std::size_t>(l)].matvec(
          a, row_mask, col_mask, rng);
      const nn::Vector& b = biases[static_cast<std::size_t>(l)];
      for (std::size_t i = 0; i < z.size(); ++i) {
        if (!col_mask.empty() && !col_mask[i]) {
          z[i] = 0.0;
          continue;
        }
        z[i] += b[i];
      }
      if (has_hidden_mask) {
        for (std::size_t i = 0; i < z.size(); ++i) {
          z[i] = std::max(0.0, z[i]);
          z[i] = col_mask[i] ? z[i] * keep_scale : 0.0;
        }
        row_mask = col_mask;
        ++site;
      }
      a = std::move(z);
    }
    return a;
  }

  // Strictly serial MC-Dropout, Welford accumulation (the seed loop).
  void mc_predict(const nn::Vector& x, int iterations, double dropout_p,
                  bnn::MaskSource& mask_src, core::Rng& analog_rng) const {
    const std::size_t n_out = biases.back().size();
    nn::Vector mean(n_out, 0.0), m2(n_out, 0.0);
    std::vector<int> widths;
    if (dropout_on_input) widths.push_back(macros[0].n_in());
    for (std::size_t l = 0; l + 1 < macros.size(); ++l)
      widths.push_back(static_cast<int>(biases[l].size()));
    for (int t = 0; t < iterations; ++t) {
      std::vector<nn::Mask> masks(widths.size());
      for (std::size_t s = 0; s < widths.size(); ++s) {
        masks[s].resize(static_cast<std::size_t>(widths[s]));
        for (auto& bit : masks[s])
          bit = mask_src.draw(dropout_p) ? 0 : 1;
      }
      const nn::Vector y = forward(x, masks, analog_rng);
      for (std::size_t i = 0; i < n_out; ++i) {
        const double delta = y[i] - mean[i];
        mean[i] += delta / static_cast<double>(t + 1);
        m2[i] += delta * (y[i] - mean[i]);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Faithful port of the seed (pre-SoA) particle-filter hot path: AoS
// vector<Particle> storage, per-call weight vectors, a vector-building
// systematic resample. Baseline for the SoA engine's speedup, compiled
// with identical flags. Bit-identity of the SoA engine against this
// algorithm is pinned separately in tests/test_memory.cpp; here it is
// only timed.
// ---------------------------------------------------------------------------

struct SeedAosFilter {
  std::vector<filter::Particle> ps;
  std::vector<double> delta_scratch;  // the seed's member scratch
  double last_ess = 0.0;

  void init_uniform(int n, const core::Vec3& lo, const core::Vec3& hi,
                    core::Rng& rng) {
    ps.clear();
    ps.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      core::Pose p{{rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                    rng.uniform(lo.z, hi.z)},
                   rng.uniform(-3.14159265358979323846,
                               3.14159265358979323846)};
      ps.push_back({p, 0.0});
    }
  }

  std::vector<double> normalized_weights() const {
    std::vector<double> logw;
    logw.reserve(ps.size());
    for (const auto& p : ps) logw.push_back(p.log_weight);
    return prob::normalize_log_weights(logw);
  }

  double effective_sample_size() const {
    const auto w = normalized_weights();
    double sum_sq = 0.0;
    for (double x : w) sum_sq += x * x;
    return sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
  }

  // The seed update without the resample branch (no tempering floor):
  // weigh in kBlock-keyed streams, fold the deltas in, measure the ESS.
  // The cycle rows call resample() right after — exactly the seed's
  // update at resample_threshold 1 with zero roughening sigmas.
  void update(const vision::DepthScan& scan,
              const filter::MeasurementModel& model, core::Rng& rng) {
    constexpr std::size_t kBlock = 32;
    const std::uint64_t noise_root = rng();
    const std::size_t n_blocks = (ps.size() + kBlock - 1) / kBlock;
    delta_scratch.resize(ps.size());
    for (std::size_t b = 0; b < n_blocks; ++b) {
      core::Rng block_rng = core::Rng::stream(noise_root, b);
      const std::size_t i_end = std::min((b + 1) * kBlock, ps.size());
      for (std::size_t i = b * kBlock; i < i_end; ++i)
        delta_scratch[i] = model.log_likelihood(ps[i].pose, scan, block_rng);
    }
    for (std::size_t i = 0; i < ps.size(); ++i)
      ps[i].log_weight += delta_scratch[i];
    last_ess = effective_sample_size();
  }

  void resample(core::Rng& rng) {
    const auto w = normalized_weights();
    const std::size_t n = ps.size();
    std::vector<filter::Particle> next;
    next.reserve(n);
    const double step = 1.0 / static_cast<double>(n);
    double u = rng.uniform() * step;
    double cumulative = w[0];
    std::size_t idx = 0;
    for (std::size_t i = 0; i < n; ++i) {
      while (u > cumulative && idx + 1 < ps.size()) {
        ++idx;
        cumulative += w[idx];
      }
      next.push_back({ps[idx].pose, 0.0});
      u += step;
    }
    ps = std::move(next);
  }
};

// Quadratic synthetic likelihood: cheap enough that the 100k-cloud rows
// time the filter mechanics (weight passes, normalization, the resample
// gather), not the measurement backend.
class QuadraticModel final : public filter::MeasurementModel {
 public:
  double log_likelihood(const core::Pose& pose, const vision::DepthScan&,
                        core::Rng&) const override {
    const core::Vec3 d = pose.position - core::Vec3{1.5, 1.0, 0.9};
    return -0.5 * d.squared_norm();
  }
  const char* name() const override { return "bench-quadratic"; }
};

// ---------------------------------------------------------------------------

std::vector<circuit::VoltageComponent> bench_components(int k) {
  core::Rng rng(3);
  std::vector<circuit::VoltageComponent> comps;
  for (int i = 0; i < k; ++i) {
    comps.push_back({{rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                      rng.uniform(0.2, 0.8)},
                     {0.06, 0.06, 0.06},
                     rng.uniform(0.5, 2.0)});
  }
  return comps;
}

}  // namespace

int main() {
  bench::Suite suite("micro");
  std::printf("=== cimnav micro-benchmarks ===\n\n");

  {  // Inverter-array likelihood readout.
    circuit::LikelihoodArrayConfig cfg;
    core::Rng rng(5);
    core::Rng nrng(7);
    for (int cols : {100, 500}) {
      cfg.total_columns = cols;
      const circuit::CimLikelihoodArray arr(cfg, bench_components(40), rng);
      double v = 0.25;
      double sink = 0.0;
      suite.run("cim_array_readout/cols=" + std::to_string(cols), 1, 0, "",
                [&] {
                  v = v < 0.75 ? v + 0.001 : 0.25;
                  sink += arr.read_log_likelihood({v, 0.5, 0.5}, nrng);
                });
      if (sink == 42.0) std::printf("%f", sink);  // defeat DCE
    }
  }

  {  // GMM log-pdf.
    core::Rng rng(9);
    std::vector<core::Vec3> pts;
    for (int i = 0; i < 2000; ++i)
      pts.push_back(
          {rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 2)});
    for (int k : {20, 80}) {
      const auto gmm = prob::Gmm::fit(pts, k, rng);
      double x = 0.1, sink = 0.0;
      suite.run("gmm_log_pdf/k=" + std::to_string(k), 1, 0, "", [&] {
        x = x < 2.9 ? x + 0.01 : 0.1;
        sink += gmm.log_pdf({x, 1.5, 1.0});
      });
      if (sink == 42.0) std::printf("%f", sink);
    }
  }

  {  // HMG kernel.
    double x = -3.0, sink = 0.0;
    suite.run("hmg_log_kernel", 1, 0, "", [&] {
      x = x < 3.0 ? x + 0.001 : -3.0;
      sink += prob::hmg_log_kernel({x, 0.5, -0.5}, {0, 0, 0}, {1, 1, 1});
    });
    if (sink == 42.0) std::printf("%f", sink);
  }

  {  // CIM macro matvec: one single call, per backend.
    for (int n : {64, 128}) {
      core::Rng rng(11);
      std::vector<double> w(static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n));
      for (auto& v : w) v = rng.normal(0.0, 0.3);
      std::vector<double> x(static_cast<std::size_t>(n));
      for (auto& v : x) v = rng.uniform();
      core::Rng arng(13);
      const double macs = static_cast<double>(n) * n;
      for (const std::string& be : cimsram::backend_names()) {
        cimsram::CimMacroConfig cfg;
        cfg.backend = be;
        const cimsram::CimMacro macro(w, n, n, cfg, 1.0 / 63.0);
        suite.run("cim_macro_matvec/n=" + std::to_string(n) + "/" + be, 1,
                  macs, "macs", [&] { macro.matvec(x, {}, {}, arng); });
      }
    }
  }

  {  // Particle-filter systematic resampling.
    for (int n : {300, 3000}) {
      filter::ParticleFilterConfig cfg;
      cfg.particle_count = n;
      filter::ParticleFilter pf(cfg);
      core::Rng rng(17);
      pf.init_uniform({0, 0, 0}, {3, 3, 2}, rng);
      suite.run("particle_resample/n=" + std::to_string(n), 1, n,
                "particles", [&] { pf.resample(rng); });
    }
  }

  // ---- Headline: SoA particle engine vs the seed AoS filter (100k) ----
  //
  // A 100k-particle cloud through one measurement update and one
  // systematic resample, single-threaded, SoA engine vs the literal seed
  // algorithm it replaced (AoS vector<Particle>, per-call weight vectors,
  // vector-building resample). The synthetic quadratic likelihood keeps
  // the measurement backend out of the timing, so the ratios isolate the
  // storage layout and the allocation behavior. The gated speedup ratios
  // are paired medians (Suite::paired_ratio: seed and SoA timed back to
  // back in each of 7 rounds), so host-speed drift between the single
  // rows stays out of them. The steady-state cycle must also be
  // heap-silent — counted by the global operator-new spy at bench scale.
  {
    constexpr int kCloud = 100000;
    const QuadraticModel model;
    const vision::DepthScan scan;  // the synthetic model ignores the scan

    filter::ParticleFilterConfig cfg;
    cfg.particle_count = kCloud;
    cfg.resample_threshold = 0.0;  // resampling timed as its own rows
    filter::ParticleFilter soa(cfg);
    core::Rng soa_init(19);
    soa.init_uniform({0, 0, 0}, {3, 3, 2}, soa_init);

    SeedAosFilter aos;
    core::Rng aos_init(19);
    aos.init_uniform(kCloud, {0, 0, 0}, {3, 3, 2}, aos_init);

    core::Rng soa_rng(23);
    core::Rng aos_rng(23);
    const auto soa_update = [&] { soa.update(scan, model, soa_rng); };
    const auto aos_update = [&] { aos.update(scan, model, aos_rng); };
    const auto soa_res = [&] { soa.resample(soa_rng); };
    const auto aos_res = [&] { aos.resample(aos_rng); };
    suite.run("particle_filter_100k/update/soa", 1, kCloud, "particles",
              soa_update);
    suite.run("particle_filter_100k/update/aos_seed", 1, kCloud, "particles",
              aos_update);
    suite.run("particle_filter_100k/resample/soa", 1, kCloud, "particles",
              soa_res);
    suite.run("particle_filter_100k/resample/aos_seed", 1, kCloud,
              "particles", aos_res);

    // The production cycle: an update whose ESS triggers the internal
    // resample (threshold 1, zero roughening so the shared jitter cost
    // does not dilute the layout comparison). This is where the SoA
    // engine's normalized-weight reuse pays: the ESS measurement and the
    // resample it triggers share one normalization, where the seed path
    // normalizes twice and allocates three vectors.
    filter::ParticleFilterConfig cyc_cfg = cfg;
    cyc_cfg.resample_threshold = 1.0;
    cyc_cfg.roughening_sigma_pos = {0.0, 0.0, 0.0};
    cyc_cfg.roughening_sigma_yaw = 0.0;
    filter::ParticleFilter soa_cyc(cyc_cfg);
    core::Rng soa_cyc_init(19);
    soa_cyc.init_uniform({0, 0, 0}, {3, 3, 2}, soa_cyc_init);
    SeedAosFilter aos_cyc;
    core::Rng aos_cyc_init(19);
    aos_cyc.init_uniform(kCloud, {0, 0, 0}, {3, 3, 2}, aos_cyc_init);
    core::Rng soa_cyc_rng(29);
    core::Rng aos_cyc_rng(29);
    const auto soa_cycle = [&] { soa_cyc.update(scan, model, soa_cyc_rng); };
    const auto aos_cycle = [&] {
      aos_cyc.update(scan, model, aos_cyc_rng);
      aos_cyc.resample(aos_cyc_rng);
    };
    suite.run("particle_filter_100k/cycle/soa", 1, kCloud, "particles",
              soa_cycle);
    suite.run("particle_filter_100k/cycle/aos_seed", 1, kCloud, "particles",
              aos_cycle);

    const double update_speedup =
        bench::Suite::paired_ratio(7, aos_update, soa_update);
    const double resample_speedup =
        bench::Suite::paired_ratio(7, aos_res, soa_res);
    const double cycle_speedup =
        bench::Suite::paired_ratio(7, aos_cycle, soa_cycle);

    // Zero-steady-state-allocation check at bench scale: a full
    // update + resample cycle after warm-up must not touch the heap.
    const std::uint64_t cycle_allocs =
        heap_spy::allocations_during(soa_cycle);

    suite.add_summary("particle_filter_100k_update_speedup_vs_aos",
                      update_speedup);
    suite.add_summary("particle_filter_100k_resample_speedup_vs_aos",
                      resample_speedup);
    suite.add_summary("particle_filter_100k_cycle_speedup_vs_aos",
                      cycle_speedup);
    // Acceptance flags (gated as exact values by bench_diff.py):
    // >= 1.2x single-thread update+resample throughput, zero heap
    // allocations in the steady-state cycle.
    suite.add_summary("particle_filter_100k_speedup_criterion_met",
                      cycle_speedup >= 1.2 ? 1.0 : 0.0);
    suite.add_summary("particle_filter_100k_zero_alloc_cycle",
                      cycle_allocs == 0 ? 1.0 : 0.0);
    std::printf(
        "\nparticle_filter_100k SoA vs seed AoS (1 thread): update %.2fx, "
        "resample %.2fx, update+resample cycle %.2fx, steady-state heap "
        "allocs %llu\n\n",
        update_speedup, resample_speedup, cycle_speedup,
        static_cast<unsigned long long>(cycle_allocs));
  }

  // ---- Headline: MC-Dropout prediction, engine vs seed path ----
  {
    core::Rng rng(5);
    nn::MlpConfig net_cfg;
    net_cfg.layer_sizes = {144, 64, 32, 4};
    net_cfg.dropout_on_input = false;
    net_cfg.dropout_p = 0.5;
    nn::Mlp net(net_cfg, rng);
    std::vector<nn::Vector> calib;
    for (int i = 0; i < 16; ++i) {
      nn::Vector v(144);
      for (auto& e : v) e = rng.uniform();
      calib.push_back(std::move(v));
    }
    cimsram::CimMacroConfig mc;
    mc.input_bits = 4;
    mc.weight_bits = 4;
    core::Rng crng(7);
    const nn::CimMlp cim(net, mc, calib, crng);
    nn::Vector x(144);
    for (auto& e : x) e = rng.uniform();

    // The seed baseline shares weights and calibrated scales with the
    // engine-backed network, so both execute the same nominal workload.
    SeedMlp seed;
    for (int l = 0; l < cim.layer_count(); ++l) {
      const nn::Matrix& w = net.weights(l);
      seed.macros.emplace_back(w.data(), w.rows(), w.cols(), mc,
                               cim.macro(l).input_scale());
      seed.biases.push_back(net.biases(l));
    }
    seed.keep_scale = cim.dropout_keep_scale();
    seed.dropout_on_input = cim.dropout_on_input();

    constexpr int kIters = 30;
    constexpr double kP = 0.5;
    // Nominal MACs per prediction, measured on the engine's counters.
    cim.reset_stats();
    {
      bnn::SoftwareMaskSource masks(core::Rng{11});
      bnn::McOptions opt;
      opt.iterations = kIters;
      opt.dropout_p = kP;
      core::Rng arng(13);
      bnn::mc_predict_cim(cim, x, opt, masks, arng);
    }
    const double macs_per_pred =
        static_cast<double>(cim.total_stats().nominal_macs);
    cim.reset_stats();

    bnn::SoftwareMaskSource seed_masks(core::Rng{11});
    core::Rng seed_arng(13);
    const auto seed_result =
        suite.run("mc_predict_cim/seed_baseline", 1, macs_per_pred, "macs",
                  [&] { seed.mc_predict(x, kIters, kP, seed_masks,
                                        seed_arng); });

    auto run_engine = [&](const char* name, core::ThreadPool* pool,
                          int threads, bool reuse) -> bench::Result {
      bnn::SoftwareMaskSource masks(core::Rng{11});
      bnn::McOptions opt;
      opt.iterations = kIters;
      opt.dropout_p = kP;
      opt.compute_reuse = reuse;
      opt.pool = pool;
      core::Rng arng(13);
      return suite.run(name, threads, macs_per_pred, "macs", [&] {
        bnn::mc_predict_cim(cim, x, opt, masks, arng);
      });
    };

    core::ThreadPool pool2(2), pool8(8);
    const auto engine1 =
        run_engine("mc_predict_cim/engine", nullptr, 1, false);
    run_engine("mc_predict_cim/engine", &pool2, 2, false);
    const auto engine8 =
        run_engine("mc_predict_cim/engine", &pool8, 8, false);
    run_engine("mc_predict_cim/engine+reuse", &pool8, 8, true);

    const double speedup1 = seed_result.ns_per_op / engine1.ns_per_op;
    const double speedup8 = seed_result.ns_per_op / engine8.ns_per_op;
    suite.add_summary("mc_predict_speedup_1t_vs_seed", speedup1);
    suite.add_summary("mc_predict_speedup_8t_vs_seed", speedup8);
    suite.add_summary("mc_predict_macs_per_pred", macs_per_pred);
    std::printf(
        "\nmc_predict_cim speedup vs single-threaded seed path: "
        "%.2fx (1 thread), %.2fx (8 threads)\n\n",
        speedup1, speedup8);

    // Backend sweep: the same prediction through every registered column
    // kernel, serially, so the ratio isolates the kernel itself. Each
    // backend is measured three times in alternation for the table.
    std::vector<double> ref_runs, bit_runs;
    for (int round = 0; round < 3; ++round) {
      for (const std::string& be : cimsram::backend_names()) {
        cimsram::CimMacroConfig bcfg = mc;
        bcfg.backend = be;
        core::Rng bcrng(7);
        const nn::CimMlp bcim(net, bcfg, calib, bcrng);
        bnn::SoftwareMaskSource bmasks(core::Rng{11});
        bnn::McOptions opt;
        opt.iterations = kIters;
        opt.dropout_p = kP;
        core::Rng barng(13);
        const auto res = suite.run(
            "mc_predict_cim/backend=" + be + "/round=" +
                std::to_string(round),
            1, macs_per_pred, "macs",
            [&] { bnn::mc_predict_cim(bcim, x, opt, bmasks, barng); });
        if (be == "reference") ref_runs.push_back(res.ns_per_op);
        if (be == "bitsliced") bit_runs.push_back(res.ns_per_op);
      }
    }
    if (!ref_runs.empty() && !bit_runs.empty()) {
      // The gated ratio: reference and bitsliced timed back to back in
      // each of 7 rounds, median of the per-round ratios.
      const auto predict_fn = [&](const char* be) {
        cimsram::CimMacroConfig bcfg = mc;
        bcfg.backend = be;
        core::Rng bcrng(7);
        bnn::McOptions opt;
        opt.iterations = kIters;
        opt.dropout_p = kP;
        return [cim = std::make_shared<const nn::CimMlp>(net, bcfg, calib,
                                                         bcrng),
                &x, opt, masks = bnn::SoftwareMaskSource(core::Rng{11}),
                arng = core::Rng(13)]() mutable {
          bnn::mc_predict_cim(*cim, x, opt, masks, arng);
        };
      };
      const double ratio = bench::Suite::paired_ratio(
          7, predict_fn("reference"), predict_fn("bitsliced"));
      suite.add_summary("mc_predict_bitsliced_speedup_vs_reference", ratio);
      std::printf(
          "\nmc_predict_cim BitSlicedBackend speedup vs ReferenceBackend: "
          "%.2fx\n\n",
          ratio);
    }

    // ---- Frame window schedule: cross-frame MC batching ----
    //
    // A window loop in the standalone loops' A -> B -> C order (the
    // window's inputs, then one mc_predict_cim_window call batching every
    // frame's MC iterations through one macro dispatch per layer, then
    // consume in frame order) versus the serial per-frame driver
    // (make_input -> mc_predict_cim -> consume, frame at a time). Both
    // paths compute bit-identical predictions; the ratio isolates the
    // cross-frame batching. One op = a full kFrames-frame scenario, so
    // items/s is frames per second.
    {
      constexpr int kFrames = 8;
      constexpr int kWindow = 4;
      std::vector<nn::Vector> frame_inputs;
      for (int f = 0; f < kFrames; ++f) {
        core::Rng frng = core::Rng::stream(0xF7A3E5, static_cast<std::uint64_t>(f));
        nn::Vector v(144);
        for (auto& e : v) e = frng.uniform();
        frame_inputs.push_back(std::move(v));
      }
      double sink = 0.0;
      const auto make_input = [&](int f) {
        return frame_inputs[static_cast<std::size_t>(f)];
      };
      const auto consume = [&](int, const bnn::McPrediction& p) {
        sink += p.mean[0];
      };

      // Loop bodies; each owns its mask and noise streams, so the rows
      // and the paired ratios below time the same work.
      const auto options_for = [&](core::ThreadPool* pool) {
        bnn::McOptions opt;
        opt.iterations = kIters;
        opt.dropout_p = kP;
        opt.pool = pool;
        return opt;
      };
      const auto per_frame = [&](core::ThreadPool* pool) {
        return [&, opt = options_for(pool),
                masks = bnn::SoftwareMaskSource(core::Rng{11}),
                arng = core::Rng(13)]() mutable {
          for (int f = 0; f < kFrames; ++f)
            consume(f, bnn::mc_predict_cim(cim, make_input(f), opt, masks,
                                           arng));
        };
      };
      const auto streamed = [&](core::ThreadPool* pool) {
        return [&, opt = options_for(pool),
                masks = bnn::SoftwareMaskSource(core::Rng{11}),
                arng = core::Rng(13),
                window = std::vector<nn::Vector>(kWindow),
                xs = std::vector<const nn::Vector*>()]() mutable {
          for (int w0 = 0; w0 < kFrames; w0 += kWindow) {
            const int len = std::min(kWindow, kFrames - w0);
            xs.clear();
            for (int k = 0; k < len; ++k) {
              window[static_cast<std::size_t>(k)] = make_input(w0 + k);
              xs.push_back(&window[static_cast<std::size_t>(k)]);
            }
            const auto preds =
                bnn::mc_predict_cim_window(cim, xs, opt, masks, arng);
            for (int k = 0; k < len; ++k)
              consume(w0 + k, preds[static_cast<std::size_t>(k)]);
          }
        };
      };

      core::ThreadPool pool8b(8);
      suite.run("frame_pipeline_throughput/per_frame", 1, kFrames, "frames",
                per_frame(nullptr));
      suite.run("frame_pipeline_throughput/per_frame", 8, kFrames, "frames",
                per_frame(&pool8b));
      suite.run("frame_pipeline_throughput/streamed_w4", 1, kFrames,
                "frames", streamed(nullptr));
      suite.run("frame_pipeline_throughput/streamed_w4", 8, kFrames,
                "frames", streamed(&pool8b));
      // Speedups are paired medians: per-frame and window loop timed back
      // to back in each of 7 rounds.
      const double speedup8 = bench::Suite::paired_ratio(
          7, per_frame(&pool8b), streamed(&pool8b));
      const double speedup1 = bench::Suite::paired_ratio(
          7, per_frame(nullptr), streamed(nullptr));
      if (sink == 42.0) std::printf("%f", sink);  // defeat DCE

      suite.add_summary("frame_pipeline_speedup_8t", speedup8);
      suite.add_summary("frame_pipeline_speedup_1t", speedup1);
      std::printf(
          "\nframe window loop (window %d) vs serial per-frame driver: "
          "%.2fx frames/s (8 threads), %.2fx (1 thread)\n\n",
          kWindow, speedup8, speedup1);
    }
  }

  {  // Conformance harness: per-(backend x family) case timing + the
     // quick-tier sweep itself. A backend registered via register_backend
     // joins these rows and the pass count automatically, so the tracked
     // conformance_cases_passed summary can only grow with new backends.
    namespace conf = cimsram::conformance;
    const auto names = cimsram::backend_names();
    int passed = 0, total = 0;
    for (const std::string& be : names) {
      for (auto family : conf::families()) {
        // One representative deterministic case per (backend, family):
        // ragged odd-row monolithic geometry, single ideal dispatch.
        conf::CaseSpec spec;
        spec.backend = be;
        spec.geom = {149, 37, 0, 0};
        spec.family = family;
        spec.mode = conf::NoiseMode::kIdeal;
        spec.dispatch = conf::Dispatch::kSingle;
        spec.seed = 0xBE11C;
        const auto macro = conf::make_case_macro(spec, be);
        std::vector<double> x;
        std::vector<std::uint8_t> im, om;
        conf::make_case_input(spec, 0, x, im, om);
        suite.run(std::string("conformance_case/") +
                      conf::to_string(family) + "/" + be,
                  1, static_cast<double>(spec.geom.n_in) * spec.geom.n_out,
                  "macs", [&] { macro->matvec_ideal(x, im, om); });
      }
      for (const auto& c : conf::cases_for(be, conf::Tier::kQuick)) {
        ++total;
        const auto r = conf::run_case(c);
        if (r.pass)
          ++passed;
        else
          std::printf("conformance FAIL: %s\n", r.failure.c_str());
      }
    }
    std::printf("\nconformance quick sweep: %d/%d cases passed over %zu "
                "backends\n\n",
                passed, total, names.size());
    suite.add_summary("conformance_cases_passed",
                      static_cast<double>(passed));
    suite.add_summary("conformance_cases_total", static_cast<double>(total));
    suite.add_summary("backends_swept", static_cast<double>(names.size()));
  }

  suite.write_json();
  return 0;
}
