// perfbench — end-to-end benchmark of the cimnav stack.
//
//   perfbench --workload <vo_uncertainty|fleet_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Each run builds the whole stack from scratch (VO training, scenario and
// map build, likelihood-array programming, CIM snapshot: the `setup_s`
// metric), warms up, then drives one workload through the library's
// public entry points only for --seconds of wall time:
//
//   vo_uncertainty  MC-Dropout VO posterior over the held-out 40-frame
//                   trajectory via VoPipeline::run_cim_mc_streamed, T=30,
//                   window 4, passes alternating dense and
//                   compute_reuse+order_samples, on a pool of half the
//                   host's threads. All time is stage B (nn / cimsram /
//                   bnn); no filter or likelihood runs.
//   fleet_mixed     fleet::FleetEngine, closed load of 8 lanes that each
//                   keep one session in flight (a completion submits the
//                   lane's next session), ticked from this thread;
//                   priority admission, working set 4, window 4.
//                   Tenants mix corridor_dropout tracking and
//                   kidnapped_drone with KLD adaptation, always /
//                   sigma_gate / decimate policies, half with compute
//                   reuse, two priority classes with tick targets.
//
// Simulated results (energy, RMSE, QoS, every count) are taken over a
// fixed set of work — the first 64 passes / the sessions completed in the
// first 48 ticks — so they repeat exactly for a seed however fast the
// host is; timings are taken over the measured phase. Correctness checks
// run outside the timed phase and count into `failed`.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics: a traced run alternates traced and untraced units of the same
// loop (for the overhead ratio), times the likelihood array through a
// forwarding MeasurementModel, and drives sessions stage by stage with
// spans around each stage call. The last stdout line is the result JSON.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bnn/mc_dropout.hpp"
#include "core/thread_pool.hpp"
#include "energy/macro_energy.hpp"
#include "filter/scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "trace.hpp"
#include "vo/closed_loop.hpp"
#include "vo/odometry_session.hpp"
#include "vo/pipeline.hpp"

// ------------------------------------------------------------ heap spy
// Counts global operator new calls while enabled (core.allocs_per_frame).
namespace {
std::atomic<bool> g_count_heap{false};
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_heap.load(std::memory_order_relaxed))
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_heap.load(std::memory_order_relaxed))
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace cimnav;
using perfbench::now_ns;
using perfbench::Tracer;

// ------------------------------------------------------------- helpers

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPUs this process may run on (what `nproc` prints).
int host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Independent seed for (benchmark seed, purpose tag, index).
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t i) {
  return splitmix(splitmix(seed ^ splitmix(tag)) + i);
}

enum SeedTag : std::uint64_t {
  kTagMask = 1, kTagAnalog, kTagRun, kTagFeature, kTagSample,
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// num / den as a double; 0 when den is 0.
template <typename N, typename D>
double ratio(N num, D den) {
  return den != 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// What a workload reports: both metric sets plus the failure ledger.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(const char* name, double value, const char* unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const char* name, double value, const char* unit) {
    per_layer.push_back({name, value, unit});
  }

  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("# check failed: %s\n", what);
    }
  }
};

// --------------------------------------------------------------- setup

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Forwarding likelihood backend used by traced runs: times every
/// log_likelihood call into a per-thread BusyCounter while the tracer is
/// on, and forwards the evaluation counter and energy price unchanged,
/// so the closed loop's energy ledger sees the same numbers.
class TimedModel final : public filter::MeasurementModel {
 public:
  TimedModel(const filter::MeasurementModel& inner, const Tracer& tracer,
             perfbench::BusyCounter& busy)
      : inner_(inner), tracer_(tracer), busy_(busy) {}

  double log_likelihood(const core::Pose& pose, const vision::DepthScan& scan,
                        core::Rng& rng) const override {
    if (!tracer_.enabled()) return inner_.log_likelihood(pose, scan, rng);
    const std::int64_t t0 = now_ns();
    const double v = inner_.log_likelihood(pose, scan, rng);
    busy_.add(now_ns() - t0);
    return v;
  }
  const char* name() const override { return inner_.name(); }
  std::uint64_t evaluation_count() const override {
    return inner_.evaluation_count();
  }
  double evaluation_energy_j() const override {
    return inner_.evaluation_energy_j();
  }

 private:
  const filter::MeasurementModel& inner_;
  const Tracer& tracer_;
  perfbench::BusyCounter& busy_;
};

/// One localization workload: scenario, its programmed likelihood array,
/// and (traced runs) the timing forwarder in front of it.
struct Site {
  std::unique_ptr<filter::LocalizationScenario> scenario;
  std::unique_ptr<filter::MeasurementModel> array;
  std::unique_ptr<TimedModel> timed;
  double build_s = 0.0;
  double program_s = 0.0;
  const filter::MeasurementModel& model() const {
    return timed ? *timed : *array;
  }
};

/// Everything built before the first timed unit of work.
struct Stack {
  std::unique_ptr<vo::VoPipeline> vo;
  std::unique_ptr<nn::CimMlp> cim;
  cimsram::CimMacroConfig macro;
  std::vector<Site> sites;
  double vo_train_s = 0.0;
  double cim_snapshot_s = 0.0;
};

/// Builds the VO stack on this thread and every scenario on a thread of
/// its own (map fitting and array programming are independent of
/// training), joining all before returning.
Stack build_stack(const std::vector<std::string>& scenarios,
                  core::ThreadPool& pool, Tracer& tracer) {
  Stack st;
  st.sites.resize(scenarios.size());
  std::vector<std::exception_ptr> errors(scenarios.size());
  std::vector<std::jthread> builders;  // joined on every exit path
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    builders.emplace_back([&, i] {
      try {
        Tracer::Scope span(tracer, "setup.scenario",
                           static_cast<std::int64_t>(i));
        Site& site = st.sites[i];
        std::int64_t t0 = now_ns();
        {
          Tracer::Scope build(tracer, "setup.scenario_build");
          site.scenario = std::make_unique<filter::LocalizationScenario>(
              filter::make_scenario_config(scenarios[i]));
        }
        std::int64_t t1 = now_ns();
        {
          Tracer::Scope program(tracer, "setup.likelihood_program");
          site.array = site.scenario->make_cim_backend();
        }
        site.build_s = seconds_between(t0, t1);
        site.program_s = seconds_between(t1, now_ns());
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  std::exception_ptr vo_error;
  try {
    // The configuration the figure benches share (defaults, 40 test
    // steps); training is not shrunk.
    vo::VoPipelineConfig cfg;
    cfg.test_steps = 40;
    cfg.pool = &pool;
    std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(tracer, "setup.vo_train");
      st.vo = std::make_unique<vo::VoPipeline>(cfg);
    }
    st.vo_train_s = seconds_between(t0, now_ns());
    st.macro.input_bits = 6;
    st.macro.weight_bits = 6;
    st.macro.adc_bits = 6;
    t0 = now_ns();
    {
      Tracer::Scope span(tracer, "setup.cim_snapshot");
      st.cim = st.vo->make_cim_network(st.macro);
    }
    st.cim_snapshot_s = seconds_between(t0, now_ns());
  } catch (...) {
    vo_error = std::current_exception();
  }
  for (auto& t : builders) t.join();
  if (vo_error) std::rethrow_exception(vo_error);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return st;
}

void add_setup_metrics(Report& rep, const Stack& st, double setup_s) {
  double build_s = 0.0, program_s = 0.0;
  for (const Site& s : st.sites) {
    build_s += s.build_s;
    program_s += s.program_s;
  }
  rep.e2e("setup_s", setup_s, "s");
  rep.layer("setup.vo_train_s", st.vo_train_s, "s");
  rep.layer("setup.scenario_build_s", build_s, "s");
  rep.layer("setup.likelihood_program_s", program_s, "s");
  rep.layer("setup.cim_snapshot_s", st.cim_snapshot_s, "s");
}

/// Stage split of a traced stage-by-stage drive: spans "drive.session"
/// with children "vo.stage_a", "bnn.stage_b" and "vo.stage_c"; whatever
/// the session spends outside the three stages is its self time.
void add_stage_metrics(Report& rep, const Tracer& tracer, double frames,
                       bool traced) {
  const double total = tracer.total_s("drive.session");
  const double a = tracer.total_s("vo.stage_a");
  const double b = tracer.total_s("bnn.stage_b");
  const double c = tracer.total_s("vo.stage_c");
  const double untimed = tracer.self_s("drive.session");
  rep.layer("vo.stage_a_ms_per_frame", ratio(a, frames) * 1e3, "ms");
  rep.layer("bnn.stage_b_ms_per_frame", ratio(b, frames) * 1e3, "ms");
  rep.layer("vo.stage_c_ms_per_frame", ratio(c, frames) * 1e3, "ms");
  rep.layer("vo.stage_a_share", ratio(a, total), "fraction");
  rep.layer("vo.stage_b_share", ratio(b, total), "fraction");
  rep.layer("vo.stage_c_share", ratio(c, total), "fraction");
  rep.layer("vo.untimed_share", ratio(untimed, total), "fraction");
  if (!traced) return;
  const double covered = ratio(a + b + c + untimed, total);
  rep.check(total > 0.0 && std::fabs(covered - 1.0) < 1e-6,
            "stage shares + untimed share cover the traced drive");
  rep.check(ratio(untimed, total) <= 0.05, "vo.untimed_share <= 0.05");
}

/// Phase accounting shared by both workloads' measured loops.
struct Phase {
  std::int64_t start_ns = 0;
  double cpu0 = 0.0;
  std::uint64_t allocs0 = 0;

  void begin() {
    g_count_heap.store(true, std::memory_order_relaxed);
    allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
    cpu0 = process_cpu_s();
    start_ns = now_ns();
  }
  double elapsed_s() const { return seconds_between(start_ns, now_ns()); }
};

void add_phase_metrics(Report& rep, const Phase& ph, double wall_s,
                       double frames, int threads) {
  const double cpu = process_cpu_s() - ph.cpu0;
  const double allocs = static_cast<double>(
      g_heap_allocs.load(std::memory_order_relaxed) - ph.allocs0);
  g_count_heap.store(false, std::memory_order_relaxed);
  rep.layer("core.cpu_utilization", ratio(cpu, wall_s * threads), "fraction");
  rep.layer("core.allocs_per_frame", ratio(allocs, frames), "count");
}

/// Untraced over traced throughput of alternating units of one loop.
struct OverheadMeter {
  double frames[2] = {0.0, 0.0};  ///< [traced]
  double secs[2] = {0.0, 0.0};
  void add(bool traced, double f, double s) {
    frames[traced] += f;
    secs[traced] += s;
  }
  double ratio_untraced_over_traced() const {
    return ratio(ratio(frames[0], secs[0]), ratio(frames[1], secs[1]));
  }
};

bool finite_run(const vo::VoRun& r) {
  if (!std::isfinite(r.ate_rmse)) return false;
  for (double v : r.frame_variance)
    if (!std::isfinite(v)) return false;
  for (double v : r.frame_delta_error)
    if (!std::isfinite(v)) return false;
  return true;
}

// ------------------------------------------------------ vo_uncertainty

constexpr int kVoIterations = 30;
constexpr int kVoWarmupPasses = 2;   ///< one dense + one reuse
constexpr int kVoQualityPasses = 64;  ///< simulated metrics: passes [0, 64)

/// One request of the measured phase: a dense pass and the reuse pass that
/// shares its masks.
struct VoPair {
  double dense_ms;
  double reuse_ms;
};

/// Pass-time quantile taken per pass kind and averaged over the two kinds
/// (they alternate one to one). Dense and reuse passes take different
/// times, so a quantile over the mixed sample would fall in the gap
/// between the two modes and jump with the smallest shift.
double pass_quantile_ms(const std::vector<VoPair>& pairs, double q) {
  std::vector<double> dense, reuse;
  dense.reserve(pairs.size());
  reuse.reserve(pairs.size());
  for (const VoPair& x : pairs) {
    dense.push_back(x.dense_ms);
    reuse.push_back(x.reuse_ms);
  }
  return 0.5 * (quantile(std::move(dense), q) + quantile(std::move(reuse), q));
}

Report run_vo_uncertainty(const Args& args, core::ThreadPool& pool,
                          Tracer& tracer, std::int64_t t_start) {
  Report rep;
  const Stack st = build_stack({}, pool, tracer);
  // The passes run on a pool of half the host's threads. Stage B
  // dispatches many small parallel_for jobs per pass, and every job waits
  // for whichever worker another tenant has descheduled, so the more
  // threads, the more a run's speed follows the host's other load: with
  // three busy processes of other work on a 4-core host, 4-thread passes
  // fell to 0.53x their unloaded speed and 2-thread passes to 0.66x. With
  // one thread the speed follows the one core it lands on instead.
  // fleet_mixed keeps the full pool and shows pool scaling.
  core::ThreadPool half(std::max(1, pool.thread_count() / 2));
  const double setup_s = seconds_between(t_start, now_ns());
  tracer.enable(false);
  const vo::VoPipeline& vo = *st.vo;

  bnn::McOptions dense;
  dense.iterations = kVoIterations;
  dense.dropout_p = vo.config().dropout_p;
  dense.pool = &half;
  bnn::McOptions reuse = dense;
  reuse.compute_reuse = true;
  reuse.order_samples = true;

  // Pass p: even = dense, odd = reuse; a (dense, reuse) pair shares one
  // mask seed — one request for the trajectory's posterior both ways.
  const auto pass = [&](int p, bnn::McWorkload* wl) {
    bnn::SoftwareMaskSource masks(core::Rng(
        derive(args.seed, kTagMask, static_cast<std::uint64_t>(p / 2))));
    return vo.run_cim_mc_streamed(st.macro, p % 2 ? reuse : dense, masks, wl);
  };

  const int adc_bits = st.macro.adc_bits;
  const double frames_per_pass =
      static_cast<double>(vo.test_inputs().size());
  double q_frames = 0.0, q_energy_j = 0.0, q_covered = 0.0;
  std::vector<double> q_rmse;
  q_rmse.reserve(kVoQualityPasses);
  bnn::McWorkload q_work;
  const auto account = [&](int p, const vo::VoRun& r,
                           const bnn::McWorkload& wl) {
    rep.check(finite_run(r), "VO posterior is finite");
    if (p >= kVoQualityPasses) return;
    q_frames += frames_per_pass;
    q_energy_j += energy::macro_stats_energy_j(wl.macro, adc_bits);
    q_rmse.push_back(r.ate_rmse);
    q_work += wl;
    // At target: the frame's delta error lies within the posterior's
    // 2-sigma band (the band the closed loop inflates its noise by).
    for (std::size_t f = 0; f < r.frame_variance.size(); ++f)
      if (r.frame_delta_error[f] <= 2.0 * std::sqrt(r.frame_variance[f]))
        q_covered += 1.0;
  };

  int p = 0;
  for (; p < kVoWarmupPasses; ++p) {
    bnn::McWorkload wl;
    account(p, pass(p, &wl), wl);
  }

  // Measured phase: whole dense/reuse pairs until --seconds have elapsed.
  // Traced runs switch the tracer on for every other pair (the overhead
  // ratio).
  std::vector<VoPair> pairs;
  pairs.reserve(1 << 15);
  OverheadMeter overhead;
  Phase ph;
  ph.begin();
  double frames = 0.0;
  double dense_ms = 0.0;
  while (ph.elapsed_s() < args.seconds || p < kVoQualityPasses || p % 2 != 0) {
    const bool traced = args.trace && (p % 4 >= 2);
    tracer.enable(traced);
    bnn::McWorkload wl;
    const std::int64_t t0 = now_ns();
    vo::VoRun r;
    {
      Tracer::Scope span(tracer, "vo.run_cim_mc_streamed", p);
      r = pass(p, &wl);
    }
    const double s = seconds_between(t0, now_ns());
    tracer.enable(false);
    account(p, r, wl);
    if (p % 2 == 0)
      dense_ms = s * 1e3;
    else
      pairs.push_back({dense_ms, s * 1e3});
    overhead.add(traced, frames_per_pass, s);
    frames += frames_per_pass;
    ++p;
  }
  const double wall_s = ph.elapsed_s();
  add_phase_metrics(rep, ph, wall_s, frames, half.thread_count());

  // Check: the streamed dense posterior equals the frame-at-a-time one.
  {
    const std::uint64_t seed = derive(args.seed, kTagSample, 0);
    bnn::SoftwareMaskSource m1{core::Rng(seed)}, m2{core::Rng(seed)};
    const vo::VoRun streamed = vo.run_cim_mc_streamed(st.macro, dense, m1);
    const vo::VoRun serial = vo.run_cim_mc(st.macro, dense, m2);
    rep.check(streamed.frame_variance == serial.frame_variance &&
                  streamed.frame_delta_error == serial.frame_delta_error &&
                  streamed.ate_rmse == serial.ate_rmse,
              "streamed dense VoRun == run_cim_mc");
  }

  // Traced runs: stage split from one dense and one reuse pass driven
  // frame by frame (A: the frame's feature, B: mc_predict_cim, C: error
  // bookkeeping).
  double drive_frames = 0.0;
  tracer.enable(args.trace);
  for (int k = 0; args.trace && k < 2; ++k) {
    bnn::SoftwareMaskSource masks(
        core::Rng(derive(args.seed, kTagMask, 1000 + k)));
    core::Rng analog(derive(args.seed, kTagAnalog, k));
    const bnn::McOptions& opt = k == 0 ? dense : reuse;
    Tracer::Scope session(tracer, "drive.session", k);
    double err = 0.0;
    nn::Vector x;
    for (std::size_t f = 0; f < vo.test_inputs().size(); ++f) {
      const auto id = static_cast<std::int64_t>(f);
      {
        Tracer::Scope a(tracer, "vo.stage_a", id);
        x = vo.test_inputs()[f];
      }
      bnn::McPrediction pred;
      {
        Tracer::Scope b(tracer, "bnn.stage_b", id);
        pred = bnn::mc_predict_cim(*st.cim, x, opt, masks, analog);
      }
      {
        Tracer::Scope c(tracer, "vo.stage_c", id);
        const nn::Vector& t = vo.test_targets()[f];
        for (std::size_t i = 0; i < 3; ++i)
          err += (pred.mean[i] - t[i]) * (pred.mean[i] - t[i]);
      }
    }
    rep.check(std::isfinite(err), "driven VO posterior is finite");
    drive_frames += frames_per_pass;
  }
  tracer.enable(false);

  // End-to-end metrics.
  add_setup_metrics(rep, st, setup_s);
  std::vector<double> pair_s;
  pair_s.reserve(pairs.size());
  double pass_s = 0.0;
  for (const VoPair& x : pairs) {
    pair_s.push_back((x.dense_ms + x.reuse_ms) * 1e-3);
    pass_s += pair_s.back();
  }
  rep.e2e("frames_per_s", ratio(2.0 * frames_per_pass * pairs.size(), pass_s),
          "1/s");
  rep.e2e("tick_ms_p50", pass_quantile_ms(pairs, 0.5), "ms");
  rep.e2e("tick_ms_p90", pass_quantile_ms(pairs, 0.9), "ms");
  rep.e2e("session_s_p50", quantile(std::move(pair_s), 0.5), "s");
  rep.e2e("qos_at_target_fraction", ratio(q_covered, q_frames), "fraction");
  rep.e2e("energy_uj_per_frame", ratio(q_energy_j, q_frames) * 1e6, "uJ");
  rep.e2e("rmse_m", quantile(q_rmse, 0.5), "m");
  std::printf("# vo_uncertainty: %zu measured dense/reuse pairs, %.0f frames "
              "in %.2f s on %d threads; quality over passes [0, %d)\n",
              pairs.size(), frames, wall_s, half.thread_count(),
              kVoQualityPasses);

  // Per-layer metrics. No likelihood, filter or fleet work runs here, so
  // those layers read 0.
  add_stage_metrics(rep, tracer, drive_frames, args.trace);
  rep.layer("cimsram.wordline_pulses_per_frame",
            ratio(q_work.macro.wordline_pulses, q_frames), "count");
  rep.layer("cimsram.adc_conversions_per_frame",
            ratio(q_work.macro.adc_conversions, q_frames), "count");
  rep.layer("bnn.mask_flips_per_frame",
            ratio(q_work.input_mask_flips, q_frames), "count");
  rep.layer("energy.vo_uj_per_frame", ratio(q_energy_j, q_frames) * 1e6, "uJ");
  rep.layer("trace.overhead_ratio", overhead.ratio_untraced_over_traced(),
            "ratio");
  const std::pair<const char*, const char*> idle[] = {
      {"circuit.likelihood_busy_ms_per_frame", "ms"},
      {"circuit.likelihood_evals_per_frame", "count"},
      {"circuit.us_per_eval", "us"},
      {"energy.update_uj_per_frame", "uJ"},
      {"filter.mean_particles", "count"},
      {"autonomy.full_update_fraction", "fraction"},
      {"autonomy.skipped_update_fraction", "fraction"},
      {"fleet.dispatch_ratio", "ratio"},
      {"fleet.frames_per_tick", "count"},
      {"fleet.queue_ticks_mean", "count"},
      {"fleet.shed_events", "count"},
      {"fleet.rejected_submissions", "count"}};
  for (const auto& [name, unit] : idle) rep.layer(name, 0.0, unit);
  return rep;
}

// --------------------------------------------------------- fleet_mixed

constexpr std::size_t kFleetInFlight = 8;
constexpr int kFleetWindow = 4;
constexpr int kFleetWarmupTicks = 6;
constexpr int kFleetIterations = 16;
/// Simulated metrics cover the sessions that complete in this many ticks
/// from the start.
constexpr std::uint64_t kFleetQualityTicks = 48;

const char* const kFleetScenarios[2] = {"corridor_dropout", "kidnapped_drone"};
const char* const kFleetPolicies[3] = {"always", "sigma_gate", "decimate"};

/// The closed load is 8 lanes, each always holding one session in flight:
/// when a lane's session completes, the lane submits its next generation.
/// A lane fixes scenario, compute reuse and priority class, and rotates
/// through the wake-up policies one generation at a time, so the
/// in-flight mix, and with it the whole tick schedule and most of the
/// work per tick, is the same for every seed. Half the lanes fly each
/// scenario and half run compute reuse. Three lanes are high class: with
/// a working set of 4 every tick runs them plus one low lane in turn.
/// Their sessions then make up most completions, so the session latency
/// median sits inside one mode instead of between the classes.
struct Lane {
  bool kidnapped;
  bool reuse;
  bool high;
};
constexpr Lane kLanes[kFleetInFlight] = {
    {false, false, true},  {false, true, true},  {true, true, true},
    {false, false, false}, {false, true, false}, {true, false, false},
    {true, true, false},   {true, false, false},
};

/// Generation `gen` of lane `lane` under the seed: the seed sets every
/// session's run, feature, mask and analog seeds.
fleet::SessionSpec tenant(std::uint64_t seed, std::size_t lane,
                          std::uint64_t gen, const vo::VoPipeline& vo,
                          core::ThreadPool& pool) {
  const Lane& ln = kLanes[lane];
  const std::uint64_t id = gen * kFleetInFlight + lane;
  fleet::SessionSpec spec;
  spec.workload = ln.kidnapped ? 1 : 0;
  vo::ClosedLoopConfig& cfg = spec.loop;
  cfg.window = kFleetWindow;
  cfg.pool = &pool;
  cfg.mc.iterations = kFleetIterations;
  cfg.mc.dropout_p = vo.config().dropout_p;
  cfg.mc.compute_reuse = ln.reuse;
  cfg.mc.order_samples = ln.reuse;
  cfg.policy = kFleetPolicies[(lane + gen) % 3];
  cfg.kld_adapt = ln.kidnapped;
  cfg.run_seed = derive(seed, kTagRun, id);
  cfg.feature_seed = derive(seed, kTagFeature, id);
  cfg.mask_seed = derive(seed, kTagMask, id);
  cfg.analog_seed = derive(seed, kTagAnalog, id);
  // Tick targets: a session needs ceil(frames / window) scheduled ticks;
  // the high class is promised 1.5x that, the low class 3x.
  const int frames = ln.kidnapped ? 48 : 36;
  const int need = (frames + kFleetWindow - 1) / kFleetWindow;
  spec.qos.priority = ln.high ? 1 : 0;
  spec.qos.target_latency_ticks = ln.high ? need * 3 / 2 : need * 3;
  return spec;
}

bool same_runs(const vo::ClosedLoopRun& a, const vo::ClosedLoopRun& b) {
  if (a.steps.size() != b.steps.size()) return false;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const vo::ClosedLoopStep& x = a.steps[i];
    const vo::ClosedLoopStep& y = b.steps[i];
    if (x.position_error_m != y.position_error_m ||
        x.yaw_error_rad != y.yaw_error_rad ||
        x.ess_fraction != y.ess_fraction ||
        x.position_spread_m != y.position_spread_m ||
        x.vo_delta_error_m != y.vo_delta_error_m ||
        x.vo_sigma != y.vo_sigma || x.update_action != y.update_action ||
        x.update_beta != y.update_beta ||
        x.likelihood_evals != y.likelihood_evals ||
        x.update_energy_j != y.update_energy_j ||
        x.vo_energy_j != y.vo_energy_j ||
        x.particle_count != y.particle_count)
      return false;
  }
  return a.rmse_m == b.rmse_m && a.total_energy_j == b.total_energy_j &&
         a.mean_particles == b.mean_particles;
}

bool finite_run(const vo::ClosedLoopRun& r) {
  if (!std::isfinite(r.rmse_m) || !std::isfinite(r.total_energy_j))
    return false;
  for (const auto& s : r.steps)
    if (!std::isfinite(s.position_error_m) || !std::isfinite(s.vo_sigma))
      return false;
  return true;
}

/// Drives one session stage by stage through OdometrySession — the same
/// calls the fleet and run_odometry_loop make, one frame at a time, with
/// a span around each stage call.
vo::ClosedLoopRun drive_session(const Site& site, const Stack& st,
                                const vo::ClosedLoopConfig& cfg,
                                core::ThreadPool& pool, Tracer& tracer,
                                std::int64_t id, bnn::McWorkload& work) {
  vo::OdometrySession session;
  session.begin(*site.scenario, *st.vo, *st.cim, site.model(), cfg);
  bnn::McOptions mc = cfg.mc;
  mc.pool = &pool;
  Tracer::Scope span(tracer, "drive.session", id);
  nn::Vector x;
  for (int f = 0; f < session.frame_count(); ++f) {
    {
      Tracer::Scope a(tracer, "vo.stage_a", f);
      session.make_input(f, x);
    }
    bnn::McWorkload wl;
    bnn::McPrediction pred;
    {
      Tracer::Scope b(tracer, "bnn.stage_b", f);
      pred = bnn::mc_predict_cim(*st.cim, x, mc, session.mask_source(),
                                 session.analog_rng(), &wl);
    }
    session.record_frame_macro(f, wl.macro);
    work += wl;
    {
      Tracer::Scope c(tracer, "vo.stage_c", f);
      session.consume(f, pred);
    }
  }
  return session.finish();
}

Report run_fleet_mixed(const Args& args, core::ThreadPool& pool,
                       Tracer& tracer, std::int64_t t_start) {
  Report rep;
  perfbench::BusyCounter busy;
  Stack st =
      build_stack({kFleetScenarios[0], kFleetScenarios[1]}, pool, tracer);
  if (args.trace)
    for (Site& s : st.sites)
      s.timed = std::make_unique<TimedModel>(*s.array, tracer, busy);

  fleet::FleetConfig fcfg;
  fcfg.pool = &pool;
  fcfg.window = kFleetWindow;
  fcfg.max_sessions = kFleetInFlight;
  fcfg.queue_capacity = kFleetInFlight;
  fcfg.admission = "priority";
  fcfg.working_set = 4;
  // Released, not destroyed, at the end of the run: the destructor
  // drains every in-flight session to completion — seconds of work this
  // process, about to exit, has no use for.
  auto engine_owner = std::make_unique<fleet::FleetEngine>(fcfg);
  fleet::FleetEngine& engine = *engine_owner;
  for (const Site& s : st.sites)
    engine.add_workload(*s.scenario, *st.vo, *st.cim, s.model());
  const double setup_s = seconds_between(t_start, now_ns());
  tracer.enable(false);

  // Closed load: one in-flight handle per lane. Submissions happen
  // between ticks and depend only on which sessions completed, so the
  // tick schedule (and every QoS outcome) does not depend on timing.
  struct Live {
    fleet::SessionHandle handle;
    std::size_t lane = 0;
    std::uint64_t gen = 0;
    std::int64_t submit_ns = 0;
  };
  std::vector<Live> live(kFleetInFlight);
  for (std::size_t k = 0; k < live.size(); ++k) live[k].lane = k;
  std::uint64_t rejected = 0;
  const auto submit = [&](Live& l) {
    l.submit_ns = now_ns();
    l.handle =
        engine.try_submit(tenant(args.seed, l.lane, l.gen, *st.vo, pool));
    ++rep.attempted;
    if (!l.handle.valid()) {
      ++rejected;
      ++rep.failed;
    }
  };
  for (Live& l : live) submit(l);

  // The schedule is the same for every seed, so the quality set is always
  // the same sessions. The checked session is one of the first 8 to
  // complete, picked by the seed.
  const std::uint64_t sample =
      derive(args.seed, kTagSample, 0) % kFleetInFlight;
  vo::ClosedLoopRun sampled_run;
  std::size_t sample_lane = 0;
  std::uint64_t sample_gen = 0;
  bool quality_open = true;
  std::uint64_t ticks = 0, completions = 0, q_sessions = 0;
  std::uint64_t q_frames = 0, q_hits = 0, q_evals = 0;
  std::uint64_t q_full = 0, q_skipped = 0;
  double q_energy_j = 0.0, q_vo_j = 0.0, q_update_j = 0.0;
  std::vector<double> q_rmse;
  q_rmse.reserve(64);
  double q_particle_frames = 0.0;
  fleet::FleetStats q_stats;
  fleet::QosReport q_qos;
  cimsram::MacroStats q_macro;
  const cimsram::MacroStats macro0 = st.cim->total_stats();

  bool measuring = false;
  std::vector<double> session_s;
  // After each tick: record every completed session and resubmit its lane.
  const auto harvest = [&](std::int64_t now) {
    for (Live& l : live) {
      if (!l.handle.valid() || !l.handle.poll()) continue;
      const vo::ClosedLoopRun& run = l.handle.wait();
      rep.check(finite_run(run), "fleet session output is finite");
      if (measuring) session_s.push_back(seconds_between(l.submit_ns, now));
      if (completions++ == sample) {
        sampled_run = run;
        sample_lane = l.lane;
        sample_gen = l.gen;
      }
      if (quality_open) {
        ++q_sessions;
        q_rmse.push_back(run.rmse_m);
        q_energy_j += run.total_energy_j;
        q_vo_j += run.vo_energy_j;
        q_update_j += run.update_energy_j;
        q_evals += run.likelihood_evals;
        q_frames += run.steps.size();
        q_full += static_cast<std::uint64_t>(run.full_updates);
        q_skipped += static_cast<std::uint64_t>(run.skipped_updates);
        q_particle_frames +=
            run.mean_particles * static_cast<double>(run.steps.size());
        q_hits += l.handle.qos().deadline_hit ? 1 : 0;
      }
      l.handle.reset();
      ++l.gen;
      submit(l);
    }
    // The last quality tick also fixes the simulated fleet counters.
    if (quality_open && ticks == kFleetQualityTicks) {
      quality_open = false;
      q_stats = engine.stats();
      q_qos = engine.qos_report();
      q_macro = st.cim->total_stats() - macro0;
    }
  };

  std::uint64_t frames_before = 0;
  const auto timed_tick = [&](bool traced, double& frames, double& secs) {
    tracer.enable(traced);
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(tracer, "fleet.tick");
      engine.tick();
    }
    const std::int64_t t1 = now_ns();
    ++ticks;
    tracer.enable(false);
    const std::uint64_t dispatched = engine.stats().frames_dispatched;
    frames = static_cast<double>(dispatched - frames_before);
    frames_before = dispatched;
    secs = seconds_between(t0, t1);
    harvest(t1);
  };

  double f = 0.0, s = 0.0;
  const std::int64_t t_warmup = now_ns();
  for (int t = 0; t < kFleetWarmupTicks; ++t) timed_tick(false, f, s);

  // Measured phase, then untimed ticks (same submission rule) until the
  // quality set has completed.
  std::vector<double> tick_ms;
  tick_ms.reserve(1 << 14);
  session_s.reserve(1 << 14);
  OverheadMeter overhead;
  double frames = 0.0, traced_frames = 0.0;
  std::uint64_t traced_evals = 0;
  const std::int64_t busy0 = busy.busy_ns();
  Phase ph;
  measuring = true;
  ph.begin();
  for (std::uint64_t t = 0; ph.elapsed_s() < args.seconds; ++t) {
    // Tracer on/off by a hash of the tick index: the schedule repeats
    // every 9, 12 and 5 ticks (session lengths, low-lane rotation), which
    // a fixed on/off pattern could alias with.
    const bool traced = args.trace && (splitmix(t) & 1) != 0;
    const std::uint64_t evals0 = st.sites[0].array->evaluation_count() +
                                 st.sites[1].array->evaluation_count();
    timed_tick(traced, f, s);
    if (traced) {
      traced_frames += f;
      traced_evals += st.sites[0].array->evaluation_count() +
                      st.sites[1].array->evaluation_count() - evals0;
    }
    tick_ms.push_back(s * 1e3);
    overhead.add(traced, f, s);
    frames += f;
  }
  const double wall_s = ph.elapsed_s();
  measuring = false;
  add_phase_metrics(rep, ph, wall_s, frames, pool.thread_count());
  const double busy_s = static_cast<double>(busy.busy_ns() - busy0) * 1e-9;
  const std::int64_t t_tail = now_ns();
  while (quality_open) timed_tick(false, f, s);

  const std::int64_t t_checks = now_ns();

  // Check: the sampled session equals its standalone run. Traced runs
  // also drive it stage by stage with spans (the stage split) and check
  // the drive against the same run, which shows tracing changes nothing.
  const fleet::SessionSpec spec =
      tenant(args.seed, sample_lane, sample_gen, *st.vo, pool);
  const Site& site = st.sites[spec.workload];
  const vo::ClosedLoopRun standalone = vo::run_odometry_loop(
      *site.scenario, *st.vo, *st.cim, site.model(), spec.loop);
  rep.check(same_runs(sampled_run, standalone),
            "fleet session == standalone run_odometry_loop");
  bnn::McWorkload drive_work;
  double drive_frames = 0.0;
  if (args.trace) {
    tracer.enable(true);
    const vo::ClosedLoopRun driven =
        drive_session(site, st, spec.loop, pool, tracer,
                      static_cast<std::int64_t>(sample), drive_work);
    tracer.enable(false);
    rep.check(same_runs(driven, standalone),
              "stage-by-stage OdometrySession drive == run_odometry_loop");
    drive_frames = static_cast<double>(driven.steps.size());
  }
  std::printf("# phases [s]: setup %.2f, warm-up %.2f, measured %.2f, "
              "quality tail %.2f (%llu ticks in all), checks %.2f\n",
              setup_s, seconds_between(t_warmup, ph.start_ns), wall_s,
              seconds_between(t_tail, t_checks),
              static_cast<unsigned long long>(engine.stats().ticks),
              seconds_between(t_checks, now_ns()));

  const double qf = static_cast<double>(q_frames);
  add_setup_metrics(rep, st, setup_s);
  rep.e2e("frames_per_s", frames / wall_s, "1/s");
  rep.e2e("tick_ms_p50", quantile(tick_ms, 0.5), "ms");
  rep.e2e("tick_ms_p90", quantile(tick_ms, 0.9), "ms");
  rep.e2e("session_s_p50", quantile(session_s, 0.5), "s");
  rep.e2e("qos_at_target_fraction", ratio(q_hits, q_sessions), "fraction");
  rep.e2e("energy_uj_per_frame", ratio(q_energy_j, qf) * 1e6, "uJ");
  rep.e2e("rmse_m", quantile(q_rmse, 0.5), "m");
  std::printf("# fleet_mixed: %zu measured ticks, %zu sessions completed, "
              "%.0f session-frames in %.2f s; quality over %llu sessions\n",
              tick_ms.size(), session_s.size(), frames, wall_s,
              static_cast<unsigned long long>(q_sessions));

  add_stage_metrics(rep, tracer, drive_frames, args.trace);
  rep.layer("circuit.likelihood_busy_ms_per_frame",
            ratio(busy_s, traced_frames) * 1e3, "ms");
  rep.layer("circuit.likelihood_evals_per_frame", ratio(q_evals, qf), "count");
  rep.layer("circuit.us_per_eval", ratio(busy_s, traced_evals) * 1e6, "us");
  rep.layer("cimsram.wordline_pulses_per_frame",
            ratio(q_macro.wordline_pulses, q_stats.frames_dispatched), "count");
  rep.layer("cimsram.adc_conversions_per_frame",
            ratio(q_macro.adc_conversions, q_stats.frames_dispatched), "count");
  rep.layer("bnn.mask_flips_per_frame",
            ratio(drive_work.input_mask_flips, drive_frames), "count");
  rep.layer("energy.vo_uj_per_frame", ratio(q_vo_j, qf) * 1e6, "uJ");
  rep.layer("energy.update_uj_per_frame", ratio(q_update_j, qf) * 1e6, "uJ");
  rep.layer("filter.mean_particles", ratio(q_particle_frames, qf), "count");
  rep.layer("autonomy.full_update_fraction", ratio(q_full, qf), "fraction");
  rep.layer("autonomy.skipped_update_fraction", ratio(q_skipped, qf),
            "fraction");
  rep.layer("fleet.dispatch_ratio",
            ratio(q_stats.serial_layer_dispatches,
                  q_stats.pooled_layer_dispatches),
            "ratio");
  rep.layer("fleet.frames_per_tick",
            ratio(q_stats.frames_dispatched, q_stats.ticks), "count");
  rep.layer("fleet.queue_ticks_mean",
            ratio(q_qos.queue_ticks, q_stats.sessions_completed), "count");
  rep.layer("fleet.shed_events", static_cast<double>(q_qos.shed_events),
            "count");
  rep.layer("fleet.rejected_submissions", static_cast<double>(rejected),
            "count");
  rep.layer("trace.overhead_ratio", overhead.ratio_untraced_over_traced(),
            "ratio");
  (void)engine_owner.release();
  return rep;
}

// ---------------------------------------------------------------- main

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<vo_uncertainty|fleet_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--trace-out") a.trace_out = v;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload != "vo_uncertainty" && a.workload != "fleet_mixed")
    usage("unknown workload");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

void print_result(const Report& rep, bool trace) {
  const auto& metrics = trace ? rep.per_layer : rep.end_to_end;
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const std::uint64_t failed = rep.failed + (finite ? 0 : 1);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(rep.attempted, 1)),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit);
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t t_start = now_ns();
  const Args args = parse(argc, argv);
  try {
    Tracer tracer;
    tracer.enable(args.trace);  // setup spans
    core::ThreadPool pool(host_threads());
    Report rep = args.workload == "vo_uncertainty"
                     ? run_vo_uncertainty(args, pool, tracer, t_start)
                     : run_fleet_mixed(args, pool, tracer, t_start);
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    if (args.trace && !args.trace_out.empty() &&
        !tracer.write_chrome_json(args.trace_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    std::printf("# threads %d, seed %llu, workload %s\n", pool.thread_count(),
                static_cast<unsigned long long>(args.seed),
                args.workload.c_str());
    print_result(rep, args.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
