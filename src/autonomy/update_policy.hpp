// Uncertainty-gated wake-up policies for the closed autonomy loop (the
// paper's headline claim made actionable): the MC-Dropout posterior is
// not just a filter input — it decides how much compute the robot spends.
//
// Every frame, after the prediction step has consumed the VO posterior,
// stage C asks an UpdatePolicy what to do with the measurement:
//
//   kFull       run the full CIM likelihood update (every particle);
//   kDecimated  run a decimated update — only a strided subset of
//               particles touches the inverter array, blocks share their
//               representative's likelihood (ParticleFilter::
//               update_decimated);
//   kSkip       predict-only: the cloud coasts on the (variance-inflated)
//               odometry until the uncertainty wakes the array up.
//
// Policies are selected by name from a registry mirroring the cimsram
// backend and filter scenario registries (built-ins "always",
// "sigma_gate", "decimate"), so benches and examples sweep them by
// string. A policy instance is created per
// run (make_update_policy) and may keep per-run state (running sigma
// statistics, consecutive-skip counters); decide() is called once per
// frame in frame order and must not draw from the run's rng streams —
// the "always" policy therefore leaves the closed loop bit-identical to
// the policy-free loop at any pool size and window.
//
// The savings a policy claims are *measured*, not asserted: the closed
// loop's per-frame energy ledger (vo::ClosedLoopStep::energy_j) prices
// the measurement updates a policy actually ran through the
// MeasurementModel evaluation counters and the stage-B macro activity
// through energy::macro_stats_energy_j (see bench_fig5_wakeup).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cimnav::autonomy {

/// What stage C does with one frame's measurement.
enum class UpdateAction {
  kFull,       ///< full CIM likelihood update over every particle
  kDecimated,  ///< strided-subset update (ParticleFilter::update_decimated)
  kSkip,       ///< predict-only: no likelihood evaluation this frame
};

/// Short stable label for reports ("full" / "decimated" / "skip").
const char* update_action_label(UpdateAction action);

/// One frame's decision.
struct UpdateDecision {
  UpdateAction action = UpdateAction::kFull;
  /// Particle fraction evaluated when action == kDecimated (in (0, 1]).
  double particle_fraction = 1.0;
};

/// Per-frame signals a policy decides from. Filled by the closed loop in
/// frame order; everything here is derived from already-computed state,
/// so reading it costs no extra compute or rng draws.
struct FrameSignals {
  int step = 0;          ///< 0-based frame index
  int total_frames = 0;  ///< frames in the run (0 = unknown)
  /// This frame's scalar VO predictive stddev (sqrt of the mean
  /// per-output variance) — the wake-up signal.
  double vo_sigma = 0.0;
  /// Running mean of vo_sigma over the frames *before* this one
  /// (0 until the first frame has been seen).
  double vo_sigma_mean = 0.0;
  /// ESS / N of the last measurement update that actually ran
  /// (1.0 until the first update) — the filter-degeneracy wake signal.
  double ess_fraction = 1.0;
  /// Step budget bookkeeping: measurement work spent so far, in
  /// full-update equivalents (a decimated update counts its particle
  /// fraction), and what the budget allows per frame on average.
  double full_update_equivalents = 0.0;
};

/// Shared knobs of the built-in policies. A single config serves all of
/// them so benches can sweep policies without per-policy plumbing.
struct PolicyConfig {
  /// Frames at the start of a run that always get a full update (the
  /// convergence transient must not be starved).
  int warmup_frames = 3;
  /// Wake when the last update's ESS/N fell below this (the filter is
  /// degenerate; dead-reckoning further would entrench a wrong mode).
  /// Calibrated against the pre-resample ESS the loop records: a sharp
  /// likelihood against a healthy cloud routinely reads 0.15-0.4, so the
  /// floor flags genuine collapse, not normal sharpness.
  double ess_wake_floor = 0.10;
  /// Wake when vo_sigma exceeds this multiple of the running mean sigma
  /// (the paper's uncertainty trigger). 1.15 trips on genuine spikes;
  /// 1.0 would wake on every above-average frame (half of them).
  double sigma_wake_ratio = 1.15;
  /// Force a full update after this many consecutive non-full frames
  /// (bounds dead-reckoning drift between wake-ups; >= 1).
  int max_consecutive_saves = 3;
  /// Particle fraction of a decimated update (in (0, 1]).
  double decimated_fraction = 0.25;
  /// Step budget: mean full-update equivalents allowed per frame, in
  /// [0, 1]. 1 disables the cap. A policy over budget demotes its full
  /// wakes to its quiet action (skip for sigma_gate, decimated for
  /// decimate); warmup frames and the ESS emergency are exempt. Note
  /// the quiet decimated spend itself is not budget-capped, so the
  /// effective floor of the decimate policy's spend is
  /// decimated_fraction (full chain full -> decimated -> skip is a
  /// ROADMAP item).
  double budget_fraction = 1.0;
};

/// Per-run wake-up policy instance. decide() is called once per frame in
/// frame order; implementations may keep per-run state but must be
/// deterministic functions of the signal sequence (no rng).
class UpdatePolicy {
 public:
  virtual ~UpdatePolicy() = default;

  /// Registry name of the policy this instance came from.
  virtual std::string_view name() const = 0;

  /// Decides what the measurement stage does with this frame.
  virtual UpdateDecision decide(const FrameSignals& signals) = 0;

  /// Re-arms this instance for a fresh run under `config`: afterwards it
  /// decides exactly as make_update_policy(name(), config) would, and
  /// rejects `config` just as that would. Session pools
  /// (vo::OdometrySession, reused by fleet::FleetEngine) re-admit through
  /// it without re-entering the registry.
  virtual void reset(const PolicyConfig& config) = 0;
};

/// Creates a fresh per-run policy instance by registry name; throws
/// std::invalid_argument for unknown names, listing the known ones.
/// Built-ins:
///   "always"      full update every frame (the pre-policy behavior;
///                 bit-identical to PR 4's closed loop)
///   "sigma_gate"  skip quiet frames, wake on uncertainty spikes, low
///                 ESS, warmup and the consecutive-skip bound
///   "decimate"    like sigma_gate, but quiet frames run a decimated
///                 update instead of none
std::unique_ptr<UpdatePolicy> make_update_policy(
    std::string_view name, const PolicyConfig& config = {});

/// Registered names in registration order (built-ins first).
std::vector<std::string> policy_names();

/// One-line description of a registered policy (throws on unknown).
std::string policy_description(std::string_view name);

}  // namespace cimnav::autonomy
