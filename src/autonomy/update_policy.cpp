// Built-in wake-up policies + the name registry (declared in
// update_policy.hpp). scripts/check_docs.py greps add_policy calls with a
// string-literal first argument under src/autonomy/ and requires every
// such name to appear in the docs.
#include "autonomy/update_policy.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/error.hpp"
#include "core/name_registry.hpp"

namespace cimnav::autonomy {
namespace {

/// The PolicyConfig checks shared by make_update_policy and every reset.
void require_valid(const PolicyConfig& config) {
  CIMNAV_REQUIRE(config.decimated_fraction > 0.0 &&
                     config.decimated_fraction <= 1.0,
                 "decimated_fraction must lie in (0, 1]");
}

/// Shared wake logic of the gated built-ins: returns true when this
/// frame must run a *full* update regardless of cost — the convergence
/// warmup, a degenerate filter, an uncertainty spike, or the bound on
/// consecutive saved frames.
bool must_wake(const FrameSignals& s, const PolicyConfig& cfg,
               int consecutive_saves) {
  if (s.step < cfg.warmup_frames) return true;
  if (s.ess_fraction < cfg.ess_wake_floor) return true;
  if (s.vo_sigma_mean > 0.0 &&
      s.vo_sigma > cfg.sigma_wake_ratio * s.vo_sigma_mean)
    return true;
  if (consecutive_saves >= std::max(1, cfg.max_consecutive_saves))
    return true;
  return false;
}

/// Step-budget demotion: true when spending a full update now would
/// push the per-frame mean above budget_fraction. The warmup window and
/// the ESS emergency are exempt — the convergence transient and a
/// degenerate filter always get their update (before the first update
/// ever runs, ess_fraction is still 1.0, so warmup needs its own
/// exemption).
bool over_budget(const FrameSignals& s, const PolicyConfig& cfg) {
  if (cfg.budget_fraction >= 1.0) return false;
  if (s.step < cfg.warmup_frames) return false;
  if (s.ess_fraction < cfg.ess_wake_floor) return false;
  return s.full_update_equivalents + 1.0 >
         cfg.budget_fraction * static_cast<double>(s.step + 1);
}

class AlwaysPolicy final : public UpdatePolicy {
 public:
  std::string_view name() const override { return "always"; }
  UpdateDecision decide(const FrameSignals&) override { return {}; }
  void reset(const PolicyConfig& cfg) override { require_valid(cfg); }
};

/// Shared body of the gated built-ins — they differ only in what a
/// quiet frame gets: "sigma_gate" skips the measurement entirely
/// (the cloud coasts on the variance-inflated odometry prediction),
/// "decimate" still touches the array with a strided particle subset
/// (blocks share their representative's likelihood), so the cloud keeps
/// being measured at a fraction of the energy.
class GatedPolicy final : public UpdatePolicy {
 public:
  GatedPolicy(std::string_view name, UpdateAction quiet_action,
              const PolicyConfig& cfg)
      : name_(name), quiet_action_(quiet_action), cfg_(cfg) {}
  std::string_view name() const override { return name_; }

  UpdateDecision decide(const FrameSignals& s) override {
    UpdateDecision d;
    if (must_wake(s, cfg_, consecutive_saves_) && !over_budget(s, cfg_)) {
      d.action = UpdateAction::kFull;
      consecutive_saves_ = 0;
    } else {
      d.action = quiet_action_;
      if (quiet_action_ == UpdateAction::kDecimated)
        d.particle_fraction = cfg_.decimated_fraction;
      ++consecutive_saves_;
    }
    return d;
  }

  void reset(const PolicyConfig& cfg) override {
    require_valid(cfg);
    cfg_ = cfg;
    consecutive_saves_ = 0;
  }

 private:
  std::string_view name_;
  UpdateAction quiet_action_;
  PolicyConfig cfg_;
  int consecutive_saves_ = 0;
};

using Factory =
    std::function<std::unique_ptr<UpdatePolicy>(const PolicyConfig&)>;
using PolicyRegistry = core::NameRegistry<Factory>;

PolicyRegistry& registry() {
  static PolicyRegistry r("update policy");
  static const bool built_ins = [&] {
    const auto add_policy = [&](const char* name, const char* description,
                                Factory factory) {
      r.add(name, description, std::move(factory));
    };
    add_policy("always",
               "full CIM likelihood update every frame (the pre-policy "
               "closed loop, bit-identical)",
               [](const PolicyConfig&) {
                 return std::make_unique<AlwaysPolicy>();
               });
    add_policy("sigma_gate",
               "skip quiet frames; wake on VO-sigma spikes, low ESS, "
               "warmup and the consecutive-skip bound",
               [](const PolicyConfig& cfg) {
                 return std::make_unique<GatedPolicy>(
                     "sigma_gate", UpdateAction::kSkip, cfg);
               });
    add_policy("decimate",
               "decimated-particle update on quiet frames instead of a "
               "skip; same wake rules",
               [](const PolicyConfig& cfg) {
                 return std::make_unique<GatedPolicy>(
                     "decimate", UpdateAction::kDecimated, cfg);
               });
    return true;
  }();
  (void)built_ins;
  return r;
}

}  // namespace

const char* update_action_label(UpdateAction action) {
  switch (action) {
    case UpdateAction::kFull:
      return "full";
    case UpdateAction::kDecimated:
      return "decimated";
    case UpdateAction::kSkip:
      return "skip";
  }
  return "?";
}

std::unique_ptr<UpdatePolicy> make_update_policy(std::string_view name,
                                                 const PolicyConfig& config) {
  require_valid(config);
  return registry().lookup(name)(config);
}

std::vector<std::string> policy_names() { return registry().names(); }

std::string policy_description(std::string_view name) {
  return registry().description(name);
}

}  // namespace cimnav::autonomy
