#include "filter/measurement.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "circuit/noise.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "energy/likelihood_energy.hpp"

namespace cimnav::filter {

namespace {

/// The calling thread's scratch for CimHmgmLikelihood::log_likelihoods:
/// three 32-bit words per read, reallocated (uninitialized) only when a
/// call has more reads than any before on this thread. Pool workers write
/// into the caller's scratch through pointers; no call reads what an
/// earlier one left.
struct ReadScratch {
  std::unique_ptr<std::uint32_t[]> words;
  std::size_t reads = 0;

  std::uint32_t* get(std::size_t n_reads) {
    if (n_reads > reads) {
      words.reset();  // free first: no old + new peak
      words.reset(new std::uint32_t[3 * n_reads]);
      reads = n_reads;
    }
    return words.get();
  }
};

thread_local ReadScratch tls_read_scratch;

/// Distinct triples per chunk of the pooled ideal-current pass.
constexpr std::size_t kTripleChunk = 128;

/// LSD radix sort of the read indices 0..n by keys[] (key_bits
/// significant bits) in digits of at most 9 bits, ping-ponging between
/// `spare` and `sorted` so that the order ends in `sorted`.
void sort_reads_by_key(const std::uint32_t* keys, std::uint32_t n,
                       int key_bits, std::uint32_t* spare,
                       std::uint32_t* sorted) {
  const int passes = std::max(1, (key_bits + 8) / 9);
  const int digit_bits = (key_bits + passes - 1) / passes;
  const std::uint32_t mask = (std::uint32_t{1} << digit_bits) - 1;
  std::uint32_t offset[std::uint32_t{1} << 9];
  const std::uint32_t* src = nullptr;  // nullptr: identity order
  std::uint32_t* dst = passes % 2 == 1 ? sorted : spare;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * digit_bits;
    std::fill(offset, offset + mask + 1, 0u);
    for (std::uint32_t r = 0; r < n; ++r) ++offset[keys[r] >> shift & mask];
    std::uint32_t sum = 0;
    for (std::uint32_t d = 0; d <= mask; ++d) {
      const std::uint32_t c = offset[d];
      offset[d] = sum;
      sum += c;
    }
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t r = src == nullptr ? j : src[j];
      dst[offset[keys[r] >> shift & mask]++] = r;
    }
    src = dst;
    dst = dst == sorted ? spare : sorted;
  }
}

}  // namespace

void MeasurementModel::log_likelihoods(const PoseSoa& poses, std::size_t n,
                                       const vision::DepthScan& scan,
                                       std::uint64_t noise_root, double* out,
                                       core::ThreadPool* pool) const {
  const std::size_t n_blocks = (n + kPoseBlock - 1) / kPoseBlock;
  const auto score_blocks = [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t b = begin; b < end; ++b) {
      core::Rng rng = core::Rng::stream(noise_root, b);
      const std::size_t i_end = std::min((b + 1) * kPoseBlock, n);
      for (std::size_t i = b * kPoseBlock; i < i_end; ++i)
        out[i] = log_likelihood(poses.at(i), scan, rng);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(n_blocks, 1, score_blocks);
  } else {
    score_blocks(0, n_blocks, 0);
  }
}

GmmLikelihood::GmmLikelihood(prob::Gmm gmm, double beta)
    : gmm_(std::move(gmm)), beta_(beta) {
  CIMNAV_REQUIRE(beta > 0.0, "beta must be positive");
  eval_energy_j_ = energy::digital_gmm_likelihood_energy(
                       static_cast<int>(gmm_.components().size()))
                       .total_j;
}

double GmmLikelihood::log_likelihood(const core::Pose& pose,
                                     const vision::DepthScan& scan,
                                     core::Rng& /*rng*/) const {
  // Per-pixel back-projection (vision::pixel_to_world) instead of a
  // materialized point vector: likelihoods run once per particle per
  // frame, and this loop must not touch the heap.
  double ll = 0.0;
  const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
  for (const auto& px : scan.pixels)
    ll += gmm_.log_pdf(vision::pixel_to_world(scan, rot, pose.position, px));
  evaluations_.fetch_add(scan.pixels.size(), std::memory_order_relaxed);
  return beta_ * ll;
}

HmgmLikelihood::HmgmLikelihood(prob::Hmgm hmgm, double beta)
    : hmgm_(std::move(hmgm)), beta_(beta) {
  CIMNAV_REQUIRE(beta > 0.0, "beta must be positive");
  // Priced like the digital GMM datapath: per point and component, the
  // Mahalanobis MACs, one kernel LUT lookup and one accumulate.
  eval_energy_j_ = energy::digital_gmm_likelihood_energy(
                       static_cast<int>(hmgm_.components().size()))
                       .total_j;
}

double HmgmLikelihood::log_likelihood(const core::Pose& pose,
                                      const vision::DepthScan& scan,
                                      core::Rng& /*rng*/) const {
  double ll = 0.0;
  const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
  for (const auto& px : scan.pixels)
    ll += hmgm_.log_pdf(vision::pixel_to_world(scan, rot, pose.position, px));
  evaluations_.fetch_add(scan.pixels.size(), std::memory_order_relaxed);
  return beta_ * ll;
}

CimHmgmLikelihood::CimHmgmLikelihood(
    const prob::Hmgm& hmgm, const map::WorldToVoltage& mapping,
    const circuit::LikelihoodArrayConfig& config, core::Rng& rng, double beta)
    : mapping_(mapping), beta_(beta) {
  CIMNAV_REQUIRE(beta > 0.0, "beta must be positive");
  const auto components = map::compile_hmgm(hmgm, mapping);
  array_ = std::make_unique<circuit::CimLikelihoodArray>(config, components,
                                                         rng);

  // Gain calibration against the digital reference over probe points
  // spanning the mapped workspace.
  constexpr int kProbes = 400;
  const core::Vec3 world_lo = mapping_.voltage_to_point(
      {mapping_.v_lo(), mapping_.v_lo(), mapping_.v_lo()});
  const core::Vec3 world_hi = mapping_.voltage_to_point(
      {mapping_.v_hi(), mapping_.v_hi(), mapping_.v_hi()});
  std::vector<double> reading, reference;
  reading.reserve(kProbes);
  reference.reserve(kProbes);
  for (int i = 0; i < kProbes; ++i) {
    const core::Vec3 p{rng.uniform(world_lo.x, world_hi.x),
                       rng.uniform(world_lo.y, world_hi.y),
                       rng.uniform(world_lo.z, world_hi.z)};
    reading.push_back(
        array_->read_log_likelihood(mapping_.point_to_voltage(p), rng));
    reference.push_back(hmgm.log_pdf(p));
  }
  const core::LinearFit fit = core::linear_fit(reading, reference);
  // Guard against degenerate calibration (e.g. flat field): keep unity.
  if (fit.slope > 0.05 && fit.slope < 100.0) gain_ = fit.slope;
  evaluations_.store(kProbes, std::memory_order_relaxed);

  // One elementary evaluation = one read of the whole programmed array
  // (all columns conduct, three DACs drive, one log-ADC converts).
  eval_energy_j_ = energy::cim_likelihood_energy(array_->column_count(),
                                                 config.dac_bits,
                                                 config.adc_bits)
                       .total_j;
}

double CimHmgmLikelihood::log_likelihood(const core::Pose& pose,
                                         const vision::DepthScan& scan,
                                         core::Rng& rng) const {
  double ll = 0.0;
  const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
  for (const auto& px : scan.pixels) {
    const core::Vec3 p =
        vision::pixel_to_world(scan, rot, pose.position, px);
    ll += array_->read_log_likelihood(mapping_.point_to_voltage(p), rng);
  }
  evaluations_.fetch_add(scan.pixels.size(), std::memory_order_relaxed);
  return beta_ * gain_ * ll;
}

void CimHmgmLikelihood::log_likelihoods(const PoseSoa& poses, std::size_t n,
                                        const vision::DepthScan& scan,
                                        std::uint64_t noise_root, double* out,
                                        core::ThreadPool* pool) const {
  const std::size_t pixels = scan.pixels.size();
  const std::size_t reads = n * pixels;
  if (reads > std::numeric_limits<std::uint32_t>::max()) {
    // Read indices are 32-bit; a larger call takes the per-pose loop.
    MeasurementModel::log_likelihoods(poses, n, scan, noise_root, out, pool);
    return;
  }
  if (reads == 0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = beta_ * gain_ * 0.0;
    return;
  }
  const auto n_reads = static_cast<std::uint32_t>(reads);
  const std::size_t n_blocks = (n + kPoseBlock - 1) / kPoseBlock;
  const auto run = [pool](std::size_t count, std::size_t grain,
                          const auto& body) {
    if (pool != nullptr) {
      pool->parallel_for(count, grain, body);
    } else {
      body(0, count, 0);
    }
  };
  const circuit::CimLikelihoodArray& array = *array_;
  // Scratch regions, R = reads words each: [ids | keys | sorted]. The
  // per-triple currents end up as 64-bit slots over [keys | sorted].
  std::uint32_t* const ids = tls_read_scratch.get(reads);
  std::uint32_t* const keys = ids + reads;
  std::uint32_t* const sorted = keys + reads;

  // Pass 1: the code-triple key of every (pose, pixel) read.
  run(n_blocks, 1, [&](std::size_t begin, std::size_t end, int) {
    const std::size_t i_end = std::min(end * kPoseBlock, n);
    for (std::size_t i = begin * kPoseBlock; i < i_end; ++i) {
      const core::Pose pose = poses.at(i);
      const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
      std::uint32_t* k = keys + i * pixels;
      for (std::size_t p = 0; p < pixels; ++p)
        k[p] = array.key(mapping_.point_to_voltage(vision::pixel_to_world(
            scan, rot, pose.position, scan.pixels[p])));
    }
  });

  // Pass 2: sort the reads by key (the ids region is the radix spare),
  // then walk the sorted order. Every read gets the id of its distinct
  // triple, and the distinct keys compact to the front of `sorted` (entry
  // d <= j is written only after the walk has read entry j).
  sort_reads_by_key(keys, n_reads, 3 * array.dac().bits(), ids, sorted);
  std::uint32_t n_distinct = 0;
  for (std::uint32_t j = 0; j < n_reads; ++j) {
    const std::uint32_t r = sorted[j];
    const std::uint32_t k = keys[r];
    if (n_distinct == 0 || k != sorted[n_distinct - 1])
      sorted[n_distinct++] = k;
    ids[r] = n_distinct - 1;
  }
  // The keys are spent: spread distinct key d to word 2d of `keys`, the
  // start of its 64-bit slot. That word is sorted[2d - R] or lies before
  // `sorted`, and 2d - R < d, so the forward copy reads every key before
  // overwriting it. D <= R slots fit in [keys | sorted].
  std::uint32_t* const slots = keys;
  for (std::uint32_t d = 0; d < n_distinct; ++d) slots[2 * d] = sorted[d];

  // Pass 3: one ideal current per distinct triple, written over its own
  // slot (byte copies: the storage stays 32-bit words).
  run(n_distinct, kTripleChunk, [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t d = begin; d < end; ++d) {
      const double c = array.ideal_current(slots[2 * d]);
      std::memcpy(slots + 2 * d, &c, sizeof c);
    }
  });

  // Pass 4: per-read noise and log-ADC in the contract's stream order.
  const circuit::NoiseParams& noise = array.config().noise;
  const circuit::LogAdc& adc = array.adc();
  run(n_blocks, 1, [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t blk = begin; blk < end; ++blk) {
      core::Rng rng = core::Rng::stream(noise_root, blk);
      const std::size_t i_end = std::min((blk + 1) * kPoseBlock, n);
      for (std::size_t i = blk * kPoseBlock; i < i_end; ++i) {
        const std::uint32_t* id = ids + i * pixels;
        double ll = 0.0;
        for (std::size_t p = 0; p < pixels; ++p) {
          double c;
          std::memcpy(&c, slots + 2 * std::size_t{id[p]}, sizeof c);
          ll += adc.read_log(circuit::noisy_current(c, noise, rng));
        }
        out[i] = beta_ * gain_ * ll;
      }
    }
  });
  evaluations_.fetch_add(reads, std::memory_order_relaxed);
}

}  // namespace cimnav::filter
