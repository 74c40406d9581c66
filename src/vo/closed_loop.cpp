#include "vo/closed_loop.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "vo/odometry_session.hpp"

namespace cimnav::vo {

filter::Control posterior_control(const bnn::McPrediction& pred) {
  CIMNAV_REQUIRE(pred.mean.size() >= 4,
                 "VO posterior must carry (dx, dy, dz, dyaw)");
  return filter::Control{{pred.mean[0], pred.mean[1], pred.mean[2]},
                         pred.mean[3]};
}

filter::MotionNoise posterior_noise(const bnn::McPrediction& pred,
                                    const filter::MotionNoise& base,
                                    const filter::NoiseInflation& inflation) {
  CIMNAV_REQUIRE(pred.variance.size() >= 4,
                 "VO posterior must carry (dx, dy, dz, dyaw) variances");
  const core::Vec3 sigma_pos{pred.component_stddev(0),
                             pred.component_stddev(1),
                             pred.component_stddev(2)};
  return filter::inflate_motion_noise(base, sigma_pos,
                                      pred.component_stddev(3), inflation);
}

ClosedLoopRun run_odometry_loop(const filter::LocalizationScenario& scenario,
                                const VoPipeline& vo, const nn::CimMlp& net,
                                const filter::MeasurementModel& model,
                                const ClosedLoopConfig& config) {
  CIMNAV_REQUIRE(config.window >= 1, "window must hold at least one frame");
  // The whole per-run state machine lives in OdometrySession (shared with
  // the fleet engine, which schedules many of them); this runner steps one
  // session through the fleet tick's window schedule: A over the pool,
  // one stage-B window call, then C in frame order.
  OdometrySession session;
  session.begin(scenario, vo, net, model, config);
  const int frames = session.frame_count();
  bnn::McOptions mc = config.mc;
  mc.pool = config.pool;

  std::vector<nn::Vector> inputs(
      static_cast<std::size_t>(std::min(config.window, frames)));
  std::vector<const nn::Vector*> xs;
  std::vector<bnn::McWorkload> frame_workloads;
  for (int w0 = 0; w0 < frames; w0 += config.window) {
    const auto len =
        static_cast<std::size_t>(std::min(config.window, frames - w0));
    const auto stage_a = [&](std::size_t begin, std::size_t end, int) {
      for (std::size_t k = begin; k < end; ++k)
        session.make_input(w0 + static_cast<int>(k), inputs[k]);
    };
    if (config.pool != nullptr) {
      config.pool->parallel_for(len, 1, stage_a);
    } else {
      stage_a(0, len, 0);
    }

    xs.clear();
    for (std::size_t k = 0; k < len; ++k) xs.push_back(&inputs[k]);
    const std::vector<bnn::McPrediction> preds = bnn::mc_predict_cim_window(
        net, xs, mc, session.mask_source(), session.analog_rng(), nullptr,
        &frame_workloads);

    for (std::size_t k = 0; k < len; ++k) {
      const int f = w0 + static_cast<int>(k);
      session.consume(f, preds[k]);
      session.record_frame_macro(f, frame_workloads[k].macro);
    }
  }
  return session.finish();
}

}  // namespace cimnav::vo
