// Measurement-likelihood backends for the particle filter (paper Eq. 1b).
//
// All backends share the same contract: given a pose hypothesis and a depth
// scan, back-project the scan into world coordinates and score it against
// the map mixture. Three implementations bracket the paper's comparison:
//
//  * GmmLikelihood      — conventional digital GMM map (float64 reference).
//  * HmgmLikelihood     — co-designed HMG mixture, evaluated digitally
//                         (isolates the kernel-shape effect from hardware
//                         non-idealities).
//  * CimHmgmLikelihood  — the full analog path: world->voltage mapping,
//                         DAC quantization, programmed inverter array with
//                         mismatch and read noise, log-ADC (isolates total
//                         hardware effect; this is the paper's system).
//
// A per-point temperature (`beta`) tempers the likelihood to compensate for
// the independence assumption across scan pixels — standard practice in
// scan-matching filters.
//
// The particle filter scores a whole cloud through one call,
// MeasurementModel::log_likelihoods. Its default is the block loop over
// log_likelihood; CimHmgmLikelihood overrides it to evaluate each distinct
// DAC code triple of the update once (see its comment).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "circuit/array.hpp"
#include "core/rng.hpp"
#include "core/vec.hpp"
#include "map/map_model.hpp"
#include "prob/gmm.hpp"
#include "prob/hmg.hpp"
#include "vision/depth.hpp"

namespace cimnav::core {
class ThreadPool;
}

namespace cimnav::filter {

/// Poses held in structure-of-arrays storage: pose i is
/// (x[i * stride], y[i * stride], z[i * stride]) with heading
/// yaw[i * stride], already wrapped to (-pi, pi].
struct PoseSoa {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const double* yaw = nullptr;
  std::size_t stride = 1;

  core::Pose at(std::size_t i) const {
    const std::size_t k = i * stride;
    core::Pose p;  // not Pose{..., yaw}: its constructor re-wraps yaw
    p.position = {x[k], y[k], z[k]};
    p.yaw = yaw[k];
    return p;
  }
};

/// Interface implemented by every likelihood backend.
///
/// Besides scoring poses, every backend keeps an elementary-evaluation
/// counter and a per-evaluation energy price — the measurement half of
/// the closed loop's energy ledger: callers snapshot evaluation_count()
/// around an update and price the delta, so the savings of an update
/// policy (autonomy::UpdatePolicy) are measured activity, not a model
/// assumption.
class MeasurementModel {
 public:
  /// Poses per analog-noise stream of log_likelihoods (see there). Part
  /// of the determinism contract: changing it changes every noisy
  /// backend's weights.
  static constexpr std::size_t kPoseBlock = 32;

  virtual ~MeasurementModel() = default;

  /// Log-likelihood (up to a pose-independent constant) of observing
  /// `scan` from `pose`. `rng` feeds analog-noise sampling; digital
  /// backends ignore it.
  virtual double log_likelihood(const core::Pose& pose,
                                const vision::DepthScan& scan,
                                core::Rng& rng) const = 0;

  /// Scores poses.at(0..n) against one scan into out[0..n) — the
  /// particle filter's one entry point for a measurement update.
  ///
  /// Stream keying: poses form blocks of kPoseBlock consecutive indices;
  /// block b draws its noise from core::Rng::stream(noise_root, b), and
  /// inside a block the poses consume that stream in index order. out[i]
  /// is therefore bit-equal to log_likelihood(poses.at(i), scan, rng_b)
  /// with rng_b the block's stream after poses b * kPoseBlock .. i - 1,
  /// and the evaluation counter grows by n * scan.pixels.size() — at any
  /// `pool` (nullptr = serial; blocks fan over the pool).
  ///
  /// The default is exactly that block loop over log_likelihood. An
  /// override may compute differently but must keep the contract.
  virtual void log_likelihoods(const PoseSoa& poses, std::size_t n,
                               const vision::DepthScan& scan,
                               std::uint64_t noise_root, double* out,
                               core::ThreadPool* pool) const;

  /// Human-readable backend name for reports.
  virtual const char* name() const = 0;

  /// Cumulative count of elementary likelihood evaluations (one scored
  /// scan point) since construction. Thread-safe: updates may come from
  /// concurrent particle-block workers. Backends without accounting may
  /// keep the default (always 0 — the ledger then records no activity).
  virtual std::uint64_t evaluation_count() const { return 0; }

  /// Energy of one elementary evaluation [J] under the backend's
  /// technology model (energy/likelihood_energy.hpp): one inverter-array
  /// read for the CIM backend, one digital mixture evaluation for the
  /// digital ones. Default 0 (no energy model).
  virtual double evaluation_energy_j() const { return 0.0; }
};

/// Digital GMM scoring (the conventional baseline).
class GmmLikelihood final : public MeasurementModel {
 public:
  GmmLikelihood(prob::Gmm gmm, double beta = 1.0);
  double log_likelihood(const core::Pose& pose, const vision::DepthScan& scan,
                        core::Rng& rng) const override;
  const char* name() const override { return "gmm-digital"; }
  std::uint64_t evaluation_count() const override {
    return evaluations_.load(std::memory_order_relaxed);
  }
  double evaluation_energy_j() const override { return eval_energy_j_; }

 private:
  prob::Gmm gmm_;
  double beta_;
  double eval_energy_j_ = 0.0;
  mutable std::atomic<std::uint64_t> evaluations_{0};
};

/// Digital HMGM scoring (kernel co-design without hardware effects).
class HmgmLikelihood final : public MeasurementModel {
 public:
  HmgmLikelihood(prob::Hmgm hmgm, double beta = 1.0);
  double log_likelihood(const core::Pose& pose, const vision::DepthScan& scan,
                        core::Rng& rng) const override;
  const char* name() const override { return "hmgm-digital"; }
  std::uint64_t evaluation_count() const override {
    return evaluations_.load(std::memory_order_relaxed);
  }
  double evaluation_energy_j() const override { return eval_energy_j_; }

 private:
  prob::Hmgm hmgm_;
  double beta_;
  double eval_energy_j_ = 0.0;
  mutable std::atomic<std::uint64_t> evaluations_{0};
};

/// Full analog CIM scoring through the programmed inverter array.
///
/// After programming, the backend runs a one-time *gain calibration*: the
/// physical kernel's tails (sech-like, set by subthreshold conduction)
/// decay slower than the ideal Gaussian, and the log-ADC clamps deep
/// tails, so the raw log-current reading is a compressed version of the
/// ideal log-likelihood. A linear fit of readings against the digital
/// reference over random probe points recovers the gain, which is applied
/// as a digital post-scale — the mixed-signal analogue of per-chip
/// calibration.
///
/// log_likelihoods evaluates each distinct DAC code triple of the call
/// once instead of once per read, in four passes: (1) over the pool by
/// pose block, back-project every pixel and pack its code-triple key;
/// (2) serially, radix-sort the reads by key and number the distinct
/// triples; (3) over the pool, compute the ideal current of every
/// distinct triple; (4) over the pool by pose block, apply each read's
/// noise and log-ADC in the per-block stream order of the contract.
/// Weights and the evaluation count are bit-equal to the per-pose loop.
/// The scratch (three 32-bit words per read plus one double per distinct
/// triple) belongs to the calling thread and only grows when a call is
/// larger than any before on that thread; nothing persists between
/// calls as state.
class CimHmgmLikelihood final : public MeasurementModel {
 public:
  /// Programs a fresh array from the HMGM and world mapping.
  CimHmgmLikelihood(const prob::Hmgm& hmgm, const map::WorldToVoltage& mapping,
                    const circuit::LikelihoodArrayConfig& config,
                    core::Rng& rng, double beta = 1.0);

  double log_likelihood(const core::Pose& pose, const vision::DepthScan& scan,
                        core::Rng& rng) const override;
  void log_likelihoods(const PoseSoa& poses, std::size_t n,
                       const vision::DepthScan& scan, std::uint64_t noise_root,
                       double* out, core::ThreadPool* pool) const override;
  const char* name() const override { return "hmgm-cim"; }
  /// One count per log-ADC read, including the construction-time
  /// calibration probes; counted once per scan, not per read.
  std::uint64_t evaluation_count() const override {
    return evaluations_.load(std::memory_order_relaxed);
  }
  double evaluation_energy_j() const override { return eval_energy_j_; }

  const circuit::CimLikelihoodArray& array() const { return *array_; }
  const map::WorldToVoltage& mapping() const { return mapping_; }

  /// Calibrated digital gain applied to raw log-ADC readings.
  double calibrated_gain() const { return gain_; }

 private:
  map::WorldToVoltage mapping_;
  std::unique_ptr<circuit::CimLikelihoodArray> array_;
  double beta_;
  double gain_ = 1.0;
  double eval_energy_j_ = 0.0;
  mutable std::atomic<std::uint64_t> evaluations_{0};
};

}  // namespace cimnav::filter
