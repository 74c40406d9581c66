// Tests for the uncertainty-gated wake-up policies: registry behavior,
// the built-ins' decision logic (warmup, ESS wake, sigma wake, the
// consecutive-save bound, the step budget), reset-in-place, and the
// action labels.
#include <gtest/gtest.h>

#include <stdexcept>

#include "autonomy/update_policy.hpp"

namespace cimnav::autonomy {
namespace {

FrameSignals quiet_frame(int step) {
  // A frame no wake rule should fire on: past warmup, healthy ESS,
  // sigma at the running mean.
  FrameSignals s;
  s.step = step;
  s.total_frames = 100;
  s.vo_sigma = 0.05;
  s.vo_sigma_mean = 0.05;
  s.ess_fraction = 0.9;
  return s;
}

TEST(PolicyRegistry, BuiltInsRegisteredInOrder) {
  const auto names = policy_names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names[0], "always");
  EXPECT_EQ(names[1], "sigma_gate");
  EXPECT_EQ(names[2], "decimate");
  for (const auto& n : names) {
    EXPECT_FALSE(policy_description(n).empty());
    EXPECT_EQ(make_update_policy(n)->name(), n);
  }
}

TEST(PolicyRegistry, UnknownNameListsRegistered) {
  try {
    make_update_policy("no_such_policy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_policy"), std::string::npos);
    EXPECT_NE(msg.find("always"), std::string::npos);
    EXPECT_NE(msg.find("sigma_gate"), std::string::npos);
    EXPECT_NE(msg.find("decimate"), std::string::npos);
  }
}

TEST(AlwaysPolicy, FullUpdateEveryFrame) {
  const auto p = make_update_policy("always");
  for (int f = 0; f < 20; ++f) {
    FrameSignals s = quiet_frame(f);
    s.vo_sigma = f % 2 == 0 ? 0.0 : 10.0;  // signals are irrelevant
    EXPECT_EQ(p->decide(s).action, UpdateAction::kFull);
  }
}

TEST(SigmaGatePolicy, WarmupEssAndSigmaWake) {
  PolicyConfig cfg;
  cfg.warmup_frames = 3;
  cfg.ess_wake_floor = 0.35;
  cfg.sigma_wake_ratio = 1.2;
  cfg.max_consecutive_saves = 100;  // isolate the other rules
  const auto p = make_update_policy("sigma_gate", cfg);

  // Warmup: full regardless of signals.
  for (int f = 0; f < 3; ++f)
    EXPECT_EQ(p->decide(quiet_frame(f)).action, UpdateAction::kFull);
  // Quiet frame after warmup: skip.
  EXPECT_EQ(p->decide(quiet_frame(3)).action, UpdateAction::kSkip);
  // Degenerate filter wakes it.
  FrameSignals low_ess = quiet_frame(4);
  low_ess.ess_fraction = 0.2;
  EXPECT_EQ(p->decide(low_ess).action, UpdateAction::kFull);
  // Uncertainty spike wakes it.
  FrameSignals spike = quiet_frame(5);
  spike.vo_sigma = 1.3 * spike.vo_sigma_mean;
  EXPECT_EQ(p->decide(spike).action, UpdateAction::kFull);
  // Sigma just below the gate stays asleep.
  FrameSignals below = quiet_frame(6);
  below.vo_sigma = 1.1 * below.vo_sigma_mean;
  EXPECT_EQ(p->decide(below).action, UpdateAction::kSkip);
  // No sigma history yet (mean 0): the mean > 0 guard avoids both a
  // spurious wake and a division-free comparison against nothing — the
  // frame stays asleep (warmup is what protects the start of a run).
  FrameSignals no_mean = quiet_frame(7);
  no_mean.vo_sigma_mean = 0.0;
  EXPECT_EQ(p->decide(no_mean).action, UpdateAction::kSkip);
}

TEST(SigmaGatePolicy, ConsecutiveSaveBound) {
  PolicyConfig cfg;
  cfg.warmup_frames = 0;
  cfg.max_consecutive_saves = 2;
  const auto p = make_update_policy("sigma_gate", cfg);
  // skip, skip, forced full, skip, skip, forced full, ...
  EXPECT_EQ(p->decide(quiet_frame(0)).action, UpdateAction::kSkip);
  EXPECT_EQ(p->decide(quiet_frame(1)).action, UpdateAction::kSkip);
  EXPECT_EQ(p->decide(quiet_frame(2)).action, UpdateAction::kFull);
  EXPECT_EQ(p->decide(quiet_frame(3)).action, UpdateAction::kSkip);
  EXPECT_EQ(p->decide(quiet_frame(4)).action, UpdateAction::kSkip);
  EXPECT_EQ(p->decide(quiet_frame(5)).action, UpdateAction::kFull);
}

TEST(SigmaGatePolicy, StepBudgetDemotesWakes) {
  PolicyConfig cfg;
  cfg.warmup_frames = 0;
  cfg.sigma_wake_ratio = 0.0;  // every frame wants to wake
  cfg.budget_fraction = 0.5;
  const auto p = make_update_policy("sigma_gate", cfg);
  int fulls = 0;
  double equivalents = 0.0;
  for (int f = 0; f < 40; ++f) {
    FrameSignals s = quiet_frame(f);
    s.vo_sigma = 10.0;  // permanent spike
    s.full_update_equivalents = equivalents;
    if (p->decide(s).action == UpdateAction::kFull) {
      ++fulls;
      equivalents += 1.0;
    }
  }
  EXPECT_LE(fulls, 21);  // the budget caps the spend at ~half the frames
  EXPECT_GE(fulls, 19);
  // An ESS emergency pierces the budget.
  FrameSignals emergency = quiet_frame(40);
  emergency.ess_fraction = 0.05;  // below the default ess_wake_floor
  emergency.full_update_equivalents = 40.0;  // far over budget
  EXPECT_EQ(p->decide(emergency).action, UpdateAction::kFull);
}

TEST(DecimatePolicy, QuietFramesDecimate) {
  PolicyConfig cfg;
  cfg.warmup_frames = 1;
  cfg.decimated_fraction = 0.25;
  cfg.max_consecutive_saves = 100;
  const auto p = make_update_policy("decimate", cfg);
  EXPECT_EQ(p->decide(quiet_frame(0)).action, UpdateAction::kFull);
  const UpdateDecision d = p->decide(quiet_frame(1));
  EXPECT_EQ(d.action, UpdateAction::kDecimated);
  EXPECT_DOUBLE_EQ(d.particle_fraction, 0.25);
  FrameSignals spike = quiet_frame(2);
  spike.vo_sigma = 10.0;
  EXPECT_EQ(p->decide(spike).action, UpdateAction::kFull);
}

/// Mostly quiet frames, with a VO-sigma spike every 7th frame and an ESS
/// dip every 11th.
FrameSignals varied_frame(int step) {
  FrameSignals s = quiet_frame(step);
  if (step % 7 == 6) s.vo_sigma = 4.0 * s.vo_sigma_mean;
  if (step % 11 == 10) s.ess_fraction = 0.02;
  return s;
}

TEST(PolicyReset, ReArmedInstanceDecidesLikeAFreshOne) {
  // reset() is the only re-admission path (vo::OdometrySession::begin):
  // after a run that leaves a save streak open, reset under a different
  // config must forget the streak and adopt every new knob.
  PolicyConfig first;
  first.warmup_frames = 1;
  first.max_consecutive_saves = 5;
  PolicyConfig second;
  second.warmup_frames = 0;
  second.max_consecutive_saves = 2;
  second.decimated_fraction = 0.5;
  second.budget_fraction = 0.6;
  for (const char* name : {"sigma_gate", "decimate"}) {
    const auto reused = make_update_policy(name, first);
    for (int f = 0; f < 12; ++f) reused->decide(quiet_frame(f));
    reused->reset(second);
    const auto fresh = make_update_policy(name, second);
    double equivalents = 0.0;
    for (int f = 0; f < 40; ++f) {
      FrameSignals s = varied_frame(f);
      s.full_update_equivalents = equivalents;
      const UpdateDecision want = fresh->decide(s);
      const UpdateDecision got = reused->decide(s);
      EXPECT_EQ(got.action, want.action) << name << " frame " << f;
      EXPECT_EQ(got.particle_fraction, want.particle_fraction)
          << name << " frame " << f;
      if (want.action == UpdateAction::kFull) equivalents += 1.0;
      if (want.action == UpdateAction::kDecimated)
        equivalents += want.particle_fraction;
    }
  }
}

TEST(PolicyConfigValidation, DecimatedFractionBounds) {
  PolicyConfig cfg;
  cfg.decimated_fraction = 0.0;
  EXPECT_THROW(make_update_policy("decimate", cfg), std::invalid_argument);
  const auto p = make_update_policy("decimate");
  EXPECT_THROW(p->reset(cfg), std::invalid_argument);
  cfg.decimated_fraction = 1.5;
  EXPECT_THROW(make_update_policy("decimate", cfg), std::invalid_argument);
  EXPECT_THROW(p->reset(cfg), std::invalid_argument);
}

TEST(UpdateActionLabel, StableStrings) {
  EXPECT_STREQ(update_action_label(UpdateAction::kFull), "full");
  EXPECT_STREQ(update_action_label(UpdateAction::kDecimated), "decimated");
  EXPECT_STREQ(update_action_label(UpdateAction::kSkip), "skip");
}

}  // namespace
}  // namespace cimnav::autonomy
