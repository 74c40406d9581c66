// Monte-Carlo Dropout inference engine (paper Sec. III-C).
//
// Runs T masked forward passes, accumulating per-output mean (the point
// prediction) and variance (the predictive uncertainty). Every iteration
// runs through the analog macros, on one of two paths behind one
// interface:
//
//  * cim       — every iteration a dense pass;
//  * cim+reuse — first-layer compute reuse (P_i = P_{i-1} + Wx|A - Wx|D),
//                optionally with greedy sample ordering that permutes the
//                pre-drawn masks to minimize consecutive Hamming distance
//                and hence the delta workload (greedy_order_chain).
#pragma once

#include <cstdint>
#include <vector>

#include "bnn/mask_source.hpp"
#include "cimsram/cim_macro.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace cimnav::bnn {

/// Aggregated MC-Dropout prediction. Produced by serial Welford
/// accumulation in iteration order, so it is bit-exact for any thread
/// count regardless of how the iterations were scheduled.
struct McPrediction {
  nn::Vector mean;      ///< per-output mean (the point prediction)
  nn::Vector variance;  ///< per-output sample variance across iterations
  int samples = 0;      ///< iterations accumulated

  /// Scalar uncertainty: mean of per-output variances.
  double scalar_variance() const;

  /// Per-output predictive standard deviation sqrt(variance[i]) — the
  /// per-axis uncertainty the closed-loop odometry adapter feeds into
  /// filter::inflate_motion_noise.
  double component_stddev(std::size_t i) const;
};

/// Execution options for the CIM paths.
struct McOptions {
  int iterations = 30;        ///< MC forward passes per prediction (T)
  double dropout_p = 0.5;     ///< per-neuron drop probability
  bool compute_reuse = false; ///< first-layer delta accumulation (Sec. III-C)
  bool order_samples = false; ///< greedy min-Hamming mask tour (needs reuse)
  /// With compute_reuse, re-evaluate the reuse accumulator densely every
  /// N iterations to bound analog-noise drift (0 = never refresh). The
  /// default trades ~1/8 of the reuse savings for drift-free accuracy.
  int reuse_refresh_interval = 8;
  /// Worker pool for the CIM paths (nullptr = serial). Dense iterations
  /// fan out individually; with compute_reuse, every refresh-delimited
  /// chain is one work item that runs its accumulation serially (the
  /// delta rule is inherently serial *within* a chain). Analog-noise
  /// streams are keyed on iteration/chain indices, so predictions are
  /// bit-identical at any thread count.
  core::ThreadPool* pool = nullptr;
};

/// Workload accounting for one MC-Dropout prediction on CIM.
struct McWorkload {
  cimsram::MacroStats macro;  ///< analog activity during the run
  /// Sum of consecutive locus-mask Hamming distances along the visiting
  /// order — the delta workload the reuse path actually dispatches. With
  /// compute_reuse the sum is per refresh chain (a chain start re-runs
  /// dense, so no delta crosses it); dense paths sum the whole window.
  std::uint64_t input_mask_flips = 0;
  std::uint64_t mask_bits_drawn = 0;

  /// Aggregation across predictions (e.g. a whole VO trajectory).
  McWorkload& operator+=(const McWorkload& o) {
    macro += o.macro;
    input_mask_flips += o.input_mask_flips;
    mask_bits_drawn += o.mask_bits_drawn;
    return *this;
  }
};

/// MC-Dropout through the CIM macros. `analog_rng` drives macro noise.
/// Workload (if non-null) *accumulates* this call's activity delta — the
/// same contract as mc_predict_cim_window, so one McWorkload can total a
/// whole trajectory across either entry point.
McPrediction mc_predict_cim(const nn::CimMlp& net, const nn::Vector& x,
                            const McOptions& options, MaskSource& masks,
                            core::Rng& analog_rng,
                            McWorkload* workload = nullptr);

/// Multi-frame MC-Dropout: predicts a whole window of frames in one
/// cross-frame batched pass (CimMlp::forward_window — one pooled macro
/// dispatch per layer over every (frame, iteration) item, layer-0
/// encoding amortized per frame across its iterations). This is stage B
/// of the standalone window loops (vo::run_odometry_loop,
/// vo::VoPipeline::run_cim_mc_streamed); the fleet tick batches many
/// sessions' windows through mc_predict_cim_jobs instead.
///
/// Determinism: dropout masks and per-frame noise roots are drawn from
/// `masks`/`analog_rng` in frame order, so the consumption — and every
/// returned prediction — is bit-identical to calling mc_predict_cim
/// frame-by-frame, at any thread count and any window size. With
/// compute_reuse, every frame's refresh chains batch through the
/// chain-parallel engine (CimMlp::forward_reuse_window): chains are
/// frame-local, and every chain of the window is one work item of a
/// single pooled dispatch.
///
/// `frame_workloads` (optional) receives one McWorkload per frame of the
/// window (resized to xs.size()) — the per-frame MacroStats deltas the
/// closed loop's energy ledger prices. Every field is *exact* per frame
/// on both paths: each (frame, iteration) item (dense) or refresh chain
/// (reuse) captures its macro accounting thread-locally inside the
/// pooled layer dispatches
/// (cimsram::ScopedStatsCapture), so the per-frame entries sum to the
/// window's measured counter delta identically — no amortized split.
std::vector<McPrediction> mc_predict_cim_window(
    const nn::CimMlp& net, const std::vector<const nn::Vector*>& xs,
    const McOptions& options, MaskSource& masks, core::Rng& analog_rng,
    McWorkload* workload = nullptr,
    std::vector<McWorkload>* frame_workloads = nullptr);

/// One session's frame window inside a cross-session batched dispatch
/// (mc_predict_cim_jobs). Each job carries its *own* mask source and
/// analog-rng stream — the determinism anchor of the fleet engine: a
/// session's draws depend only on its own sources and its own frame
/// order, never on which other sessions share the dispatch.
struct McWindowJob {
  const nn::Vector* const* xs = nullptr;  ///< n_frames input pointers
  std::size_t n_frames = 0;
  McOptions options;                      ///< per-job T / dropout / reuse
  MaskSource* masks = nullptr;            ///< this session's mask stream
  core::Rng* analog_rng = nullptr;        ///< this session's noise roots
  McPrediction* preds = nullptr;          ///< n_frames results, written in
                                          ///< place (capacity reused)
  McWorkload* frame_workloads = nullptr;  ///< optional n_frames per-frame
                                          ///< deltas (overwritten)
  McWorkload* workload = nullptr;         ///< optional aggregate (+=)
};

/// Cross-session MC-Dropout: batches the frame windows of many
/// independent sessions (jobs) through ONE CimMlp::forward_window — one
/// pooled macro dispatch per layer across every (job, frame, iteration)
/// item. This is the fleet engine's stage B.
///
/// Determinism: per job, masks and per-frame noise roots are drawn from
/// that job's own sources in frame order, and every item's analog-noise
/// stream is keyed on (frame noise root, iteration) — so each job's
/// predictions are bit-identical to running mc_predict_cim_window on it
/// alone, at any job count, thread count and window partition. Jobs with
/// compute_reuse batch the same way through the chain-parallel reuse
/// engine (CimMlp::forward_reuse_window): every refresh chain of every
/// (job, frame) is one work item of a single pooled dispatch, with
/// per-chain noise keyed on (frame noise root, chain index) — no
/// frame-serial special case remains.
///
/// Steady-state allocation-free once warm on both paths (per-thread
/// grow-only scratch; callers own preds/frame_workloads storage).
/// Returns the number of non-empty jobs that took a batched engine path
/// (dense window or pooled reuse) — the fleet bench's dispatch
/// accounting: one pooled dispatch set replaced that many.
std::size_t mc_predict_cim_jobs(const nn::CimMlp& net, McWindowJob* jobs,
                                std::size_t n_jobs, core::ThreadPool* pool);

/// Greedy min-Hamming sample ordering (MC-CIM): rewrites
/// order[begin, end) into a nearest-neighbour tour over those visiting
/// positions of `sets`, keyed by the Hamming distance of mask site 0 (the
/// reuse locus). order[begin, end) must hold the identity on entry. The
/// tour starts at `begin` and steps to the nearest unvisited position,
/// the lowest one on ties. Positions never leave [begin, end), so one
/// tour per refresh chain keeps every delta inside its chain. `used` is
/// scratch, allocation-free once warm. mc_predict_cim_jobs runs this for
/// McOptions::order_samples: per refresh chain with compute_reuse, over
/// the whole window without it.
void greedy_order_chain(const std::vector<std::vector<nn::Mask>>& sets,
                        std::size_t begin, std::size_t end,
                        std::vector<std::size_t>& order,
                        std::vector<std::uint8_t>& used);

/// Hamming distance between two equal-length masks.
std::uint64_t hamming_distance(const nn::Mask& a, const nn::Mask& b);

}  // namespace cimnav::bnn
