// Pluggable execution backends for the CIM array column kernel.
//
// A ComputeBackend evaluates the bit-serial column readout of one
// physical 8T-SRAM array: given the gated input bit planes of one read,
// it produces the analog partial sums of every column, applies the ADC
// model and the shift-add reduction, and writes scaled outputs.
// Everything *around* the kernel — quantization, bit-plane encoding, row
// gating, the array grid and its reduction, stats — is backend-independent
// and lives in CimMacro. The backend seam is one entry, run_columns, for
// dense and differential delta reads alike: exactly the (plane & gate &
// weight-plane) coincidence evaluation a SIMD or device engine slots
// into.
//
// Two backends ship in-tree, sharing one scalar kernel that takes the
// noise stream as an argument:
//
//  * "reference"  — the scalar popcount kernel on the caller's stream:
//    analog-noise draws are consumed sequentially via Rng::normal_fast,
//    one per (sign, plane, input-bit) cycle in cycle order.
//  * "bitsliced"  — one root draw from the caller's stream keys the
//    noise; packed-word popcounts feed a vectorized noise + ADC stage
//    (AVX2 where the CPU supports it, runtime-dispatched; the scalar
//    kernel on Rng::stream(root, 0) otherwise). Bit-identical to
//    "reference" on the ideal path; on the noisy path its Gaussians come
//    from a lane-parallel ziggurat, so results are distribution-matched
//    (same noise model) but not draw-for-draw equal.
//
// Backends are stateless singletons selected by name through
// CimMacroConfig::backend and the small registry below, so tests and
// benches can sweep them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"

namespace cimnav::cimsram {

/// Geometry + weight storage view of one physical array, passed to the
/// backend kernel. `weight_bits` holds the packed weight planes,
/// contiguous per column: weight_bits[((j*2 + sign)*planes + p)*words + w].
struct MacroView {
  const std::uint64_t* weight_bits = nullptr;
  int n_in = 0;       ///< physical rows (sets the ADC input range)
  int n_out = 0;      ///< physical columns
  int words = 0;      ///< packed 64-bit words per bit plane
  int planes = 0;     ///< weight magnitude planes (weight_bits - 1)
  int input_bits = 0;
  int adc_bits = 0;
  bool analog_noise = true;
  double noise_coeff = 0.0;
  /// Final output scaling y = acc * weight_scale * input_scale, applied in
  /// that order (two rounded products, matching the pre-backend engine).
  /// A grid with several row blocks passes 1.0/1.0 and scales after its
  /// row-block reduction.
  double weight_scale = 1.0;
  double input_scale = 1.0;
};

/// Capability flags a backend declares about itself. The conformance
/// harness (tests/conformance/) reads these to pick the strictest check a
/// backend can satisfy; they are descriptive, never behavioral.
struct BackendCaps {
  /// The noisy path consumes the caller's rng stream draw-for-draw like
  /// the reference kernel (one Rng::normal_fast per cycle in cycle
  /// order), so noisy outputs are bitwise-comparable against
  /// "reference", not merely distribution-matched.
  bool draw_compatible_noise = false;
  /// The kernel uses SIMD on this host (informational, for bench rows).
  bool vectorized = false;
};

/// Column-kernel interface. Implementations must be stateless and
/// thread-safe: one instance serves every macro concurrently.
class ComputeBackend {
 public:
  virtual ~ComputeBackend() = default;

  /// Registry key ("reference", "bitsliced", ...).
  virtual std::string_view name() const = 0;

  /// Self-declared capabilities (see BackendCaps). The conservative
  /// default claims nothing: new backends inherit the statistical noisy
  /// check until they opt into the stricter draw-compatible tier.
  virtual BackendCaps caps() const { return {}; }

  /// Evaluates every column of one array read. `out_mask` (nullable,
  /// view.n_out entries) gates columns — masked columns are written as
  /// 0.0. `rng` drives the analog disturbance (ignored when `ideal` or
  /// when the view disables noise). `active_rows` — the word lines
  /// actually driven — sets the noise sigma.
  ///
  /// Dense read (`word_list` null): `gated_add` holds input_bits x words
  /// packed words (encoding & row gate); `gated_rem` is ignored.
  ///
  /// Differential delta read (`word_list` non-null, compute reuse): ONE
  /// operation evaluates a signed partial sum. Word lines whose mask bit
  /// flipped ON drive the columns through `gated_add`; word lines that
  /// flipped OFF drive the complementary bit-lines through `gated_rem`.
  /// The column ADC performs a correlated double sample per cycle: each
  /// rail converts through the dense unsigned quantizer (bit-for-bit the
  /// dense read's code lattice, so delta accumulation tracks a dense
  /// re-read without drift), and the op emits the signed code difference
  /// — values in [-levels, +levels]. Either buffer may be null (no flips
  /// in that direction); its rail reads zero, so a one-sided op
  /// degenerates to exactly the dense gated read over the flipped rows.
  /// `word_list` (`n_words` entries, sorted ascending, each in
  /// [0, view.words)) lists the packed words holding flipped rows; every
  /// unlisted word must be zero in BOTH buffers across all planes, so the
  /// scan cost tracks the flipped words, not the layer width. One
  /// disturbance per conversion, like any other read.
  ///
  /// The ideal path must be bit-identical across backends: counts are
  /// integers and the shift-add reduction is exact in double, so any
  /// evaluation order yields the same sum.
  virtual void run_columns(const MacroView& view,
                           const std::uint64_t* gated_add,
                           const std::uint64_t* gated_rem,
                           const std::int32_t* word_list, int n_words,
                           std::uint64_t active_rows,
                           const std::uint8_t* out_mask, bool ideal,
                           core::Rng* rng, double* y) const = 0;
};

/// Looks up a backend by name; "auto" resolves to the fastest backend for
/// this CPU ("bitsliced"). Throws std::invalid_argument for unknown names.
const ComputeBackend& backend(std::string_view name);

/// Registered backend names, "reference" first (stable sweep order).
std::vector<std::string> backend_names();

/// Extension hook for out-of-tree backends (SIMD variants, CUDA, ...).
/// The instance must outlive every layer using it; re-registering an
/// existing name replaces the mapping and returns false.
bool register_backend(const ComputeBackend* backend);

}  // namespace cimnav::cimsram
