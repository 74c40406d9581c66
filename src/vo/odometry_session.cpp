#include "vo/odometry_session.hpp"

#include <cmath>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "energy/macro_energy.hpp"
#include "vo/trajectory.hpp"

namespace cimnav::vo {
namespace {

/// Field-wise equality of the effective filter config — the reuse gate:
/// a ParticleFilter is rebuilt only when its sizing or noise changed.
bool same_filter_config(const filter::ParticleFilterConfig& a,
                        const filter::ParticleFilterConfig& b) {
  return a.particle_count == b.particle_count &&
         a.motion_noise.sigma_position.x == b.motion_noise.sigma_position.x &&
         a.motion_noise.sigma_position.y == b.motion_noise.sigma_position.y &&
         a.motion_noise.sigma_position.z == b.motion_noise.sigma_position.z &&
         a.motion_noise.sigma_yaw == b.motion_noise.sigma_yaw &&
         a.resample_threshold == b.resample_threshold &&
         a.roughening_sigma_pos.x == b.roughening_sigma_pos.x &&
         a.roughening_sigma_pos.y == b.roughening_sigma_pos.y &&
         a.roughening_sigma_pos.z == b.roughening_sigma_pos.z &&
         a.roughening_sigma_yaw == b.roughening_sigma_yaw &&
         a.tempering_ess_floor == b.tempering_ess_floor;
}

}  // namespace

void OdometrySession::begin(const filter::LocalizationScenario& scenario,
                            const VoPipeline& vo, const nn::CimMlp& net,
                            const filter::MeasurementModel& model,
                            const ClosedLoopConfig& config) {
  scenario_ = &scenario;
  vo_ = &vo;
  net_ = &net;
  model_ = &model;
  config_ = config;
  closed_ = config.mode == OdometryMode::kClosedLoop;
  frames_ = static_cast<int>(scenario.trajectory().controls.size());

  filter::ParticleFilterConfig pf_cfg = scenario.config().filter;
  if (config.tempering_ess_floor >= 0.0)
    pf_cfg.tempering_ess_floor = config.tempering_ess_floor;
  base_noise_ = pf_cfg.motion_noise;

  // The wake-up policy: rearmed (or created) before any rng is touched
  // and never handed one — "always" therefore consumes exactly the
  // pre-policy loop's draws, the bit-identity contract bench_fig5_wakeup
  // probes. Reset-in-place keeps re-admission out of the registry (and
  // off the heap) when the name is unchanged.
  if (policy_ == nullptr || policy_->name() != config.policy)
    policy_ = autonomy::make_update_policy(config.policy, config.policy_cfg);
  else
    policy_->reset(config.policy_cfg);

  if (pf_ == nullptr || !same_filter_config(pf_cfg_, pf_cfg)) {
    pf_ = std::make_unique<filter::ParticleFilter>(pf_cfg);
    pf_cfg_ = pf_cfg;
  }

  run_rng_ = core::Rng(config.run_seed);
  if (scenario.config().global_init) {
    // Kidnapped drone: no prior on the pose — uniform over the interior,
    // full heading uncertainty.
    pf_->init_uniform(scenario.scene().interior_min(),
                      scenario.scene().interior_max(), run_rng_);
  } else {
    // Tracking init displaced from the truth (the Fig. 2f-h convention).
    const core::Pose& start = scenario.trajectory().poses.front();
    const core::Pose noisy_start{
        start.position +
            core::Vec3{run_rng_.normal(0.0, config.init_sigma_m),
                       run_rng_.normal(0.0, config.init_sigma_m),
                       run_rng_.normal(0.0, config.init_sigma_m * 0.5)},
        start.yaw + run_rng_.normal(0.0, config.init_sigma_yaw)};
    pf_->init_gaussian(noisy_start,
                       {config.init_sigma_m + 0.05,
                        config.init_sigma_m + 0.05,
                        config.init_sigma_m * 0.5 + 0.03},
                       config.init_sigma_yaw + 0.03, run_rng_);
  }

  masks_ = bnn::SoftwareMaskSource(core::Rng{config.mask_seed});
  analog_rng_ = core::Rng(config.analog_seed);

  // Rearm the run record and buffers in place (capacity kept).
  run_.mode_label = closed_ ? "closed-loop" : "open-loop";
  run_.policy_label = policy_->name();
  run_.steps.assign(static_cast<std::size_t>(frames_), ClosedLoopStep{});
  run_.rmse_m = 0.0;
  run_.final_error_m = 0.0;
  run_.mean_spread_m = 0.0;
  run_.mean_vo_sigma = 0.0;
  run_.mean_vo_delta_error_m = 0.0;
  run_.vo_energy_j = 0.0;
  run_.update_energy_j = 0.0;
  run_.total_energy_j = 0.0;
  run_.likelihood_evals = 0;
  run_.full_updates = 0;
  run_.decimated_updates = 0;
  run_.skipped_updates = 0;
  run_.mean_particles = 0.0;
  run_.final_particles = 0;
  scans_.resize(static_cast<std::size_t>(frames_));
  sigma_sum_ = 0.0;
  sigma_count_ = 0;
  last_ess_fraction_ = 1.0;
  full_update_equivalents_ = 0.0;
}

void OdometrySession::make_input(int f, nn::Vector& out) {
  const auto fi = static_cast<std::size_t>(f);
  const auto& poses = scenario_->trajectory().poses;
  scenario_->render_scan_into(fi, scans_[fi]);
  core::Rng feat_rng =
      core::Rng::stream(config_.feature_seed, static_cast<std::uint64_t>(f));
  vo_->frame_feature_into(poses[fi], poses[fi + 1], feat_rng, out);
}

void OdometrySession::consume(int f, const bnn::McPrediction& pred) {
  const auto fi = static_cast<std::size_t>(f);
  const auto& poses = scenario_->trajectory().poses;
  const auto& controls = scenario_->trajectory().controls;
  if (closed_) {
    pf_->predict(posterior_control(pred),
                 posterior_noise(pred, base_noise_, config_.inflation),
                 run_rng_);
  } else {
    pf_->predict(controls[fi], base_noise_, run_rng_);
  }

  const double vo_sigma = std::sqrt(pred.scalar_variance());
  autonomy::FrameSignals signals;
  signals.step = f;
  signals.total_frames = frames_;
  signals.vo_sigma = vo_sigma;
  signals.vo_sigma_mean =
      sigma_count_ > 0 ? sigma_sum_ / static_cast<double>(sigma_count_) : 0.0;
  signals.ess_fraction = last_ess_fraction_;
  signals.full_update_equivalents = full_update_equivalents_;
  autonomy::UpdateDecision decision = policy_->decide(signals);
  sigma_sum_ += vo_sigma;
  ++sigma_count_;

  // The ledger books what actually runs, not what was requested:
  // update_decimated rounds the fraction to a stride, and stride 1 IS
  // a full update — account (and label) it as one.
  std::size_t stride = 1;
  if (decision.action == autonomy::UpdateAction::kDecimated) {
    stride =
        filter::ParticleFilter::decimation_stride(decision.particle_fraction);
    if (stride <= 1) decision.action = autonomy::UpdateAction::kFull;
  }

  ClosedLoopStep& rec = run_.steps[fi];
  const std::uint64_t evals_before = model_->evaluation_count();
  switch (decision.action) {
    case autonomy::UpdateAction::kFull:
      pf_->update(scans_[fi], *model_, run_rng_, config_.pool);
      full_update_equivalents_ += 1.0;
      ++run_.full_updates;
      rec.update_beta = pf_->last_update_beta();
      break;
    case autonomy::UpdateAction::kDecimated:
      pf_->update_decimated(scans_[fi], *model_, decision.particle_fraction,
                            run_rng_, config_.pool);
      full_update_equivalents_ += 1.0 / static_cast<double>(stride);
      ++run_.decimated_updates;
      rec.update_beta = pf_->last_update_beta();
      break;
    case autonomy::UpdateAction::kSkip:
      ++run_.skipped_updates;
      break;
  }
  rec.update_action = decision.action;
  rec.likelihood_evals = model_->evaluation_count() - evals_before;
  rec.update_energy_j = static_cast<double>(rec.likelihood_evals) *
                        model_->evaluation_energy_j();
  run_.update_energy_j += rec.update_energy_j;

  const filter::PoseEstimate est = pf_->estimate();
  const core::Pose& truth = poses[fi + 1];
  const core::Pose truth_delta = relative_delta(poses[fi], poses[fi + 1]);
  rec.step = f + 1;
  rec.position_error_m = est.pose.position_error(truth);
  rec.yaw_error_rad = est.pose.yaw_error(truth);
  // Skipped frames keep the weights of the last update, so the live
  // ESS is the right degeneracy readout either way. The denominator is
  // the *live* cloud size — constant unless kld_adapt shrank it.
  const double n_particles = static_cast<double>(pf_->size());
  rec.ess_fraction =
      decision.action == autonomy::UpdateAction::kSkip
          ? pf_->effective_sample_size() / n_particles
          : pf_->last_update_ess() / n_particles;
  last_ess_fraction_ = rec.ess_fraction;
  rec.position_spread_m = (est.position_stddev.x + est.position_stddev.y +
                           est.position_stddev.z) /
                          3.0;
  rec.vo_delta_error_m =
      (core::Vec3{pred.mean[0], pred.mean[1], pred.mean[2]} -
       truth_delta.position)
          .norm();
  rec.vo_sigma = vo_sigma;

  // KLD-adaptive cloud sizing: once the belief's support has collapsed
  // onto few histogram bins, Fox's bound says a fraction of the cloud
  // suffices — shrink (never grow) by systematic resampling, after the
  // frame's record so the estimate above reflects the full update.
  // Only after frames whose update actually ran: a skipped frame adds
  // no information, so it must not shed particles either.
  if (config_.kld_adapt &&
      decision.action != autonomy::UpdateAction::kSkip) {
    const int bins = filter::count_occupied_bins(pf_->soa(), config_.kld);
    const auto required = static_cast<std::size_t>(
        filter::kld_required_particles(bins, config_.kld));
    if (required < pf_->size())
      pf_->resample_to(required, run_rng_, config_.pool);
  }
  rec.particle_count = static_cast<int>(pf_->size());
}

void OdometrySession::record_frame_macro(int f,
                                         const cimsram::MacroStats& stats) {
  // The VO pass runs for every frame regardless of the policy.
  ClosedLoopStep& rec = run_.steps[static_cast<std::size_t>(f)];
  rec.vo_energy_j = energy::macro_stats_energy_j(
      stats, net_->macro(0).config().adc_bits);
  run_.vo_energy_j += rec.vo_energy_j;
}

ClosedLoopRun& OdometrySession::finish() {
  // Ledger epilogue: both energy totals were booked in flight
  // (record_frame_macro, consume); total the rest of the run.
  err2_.clear();
  err2_.reserve(run_.steps.size());
  for (std::size_t fi = 0; fi < run_.steps.size(); ++fi) {
    ClosedLoopStep& s = run_.steps[fi];
    s.energy_j = s.vo_energy_j + s.update_energy_j;
    run_.likelihood_evals += s.likelihood_evals;
    err2_.push_back(s.position_error_m * s.position_error_m);
    run_.mean_spread_m += s.position_spread_m;
    run_.mean_vo_sigma += s.vo_sigma;
    run_.mean_vo_delta_error_m += s.vo_delta_error_m;
    run_.mean_particles += static_cast<double>(s.particle_count);
  }
  run_.total_energy_j = run_.vo_energy_j + run_.update_energy_j;
  if (!run_.steps.empty()) {
    const double n = static_cast<double>(run_.steps.size());
    run_.rmse_m = std::sqrt(core::mean(err2_));
    run_.final_error_m = run_.steps.back().position_error_m;
    run_.mean_spread_m /= n;
    run_.mean_vo_sigma /= n;
    run_.mean_vo_delta_error_m /= n;
    run_.mean_particles /= n;
    run_.final_particles = run_.steps.back().particle_count;
  }
  return run_;
}

}  // namespace cimnav::vo
