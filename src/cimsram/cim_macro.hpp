// 8T-SRAM compute-in-memory macro (paper Fig. 3a) — execution architecture.
//
// Physical model. A macro stores a quantized weight matrix and computes
// output = W x by bit-serial, bit-sliced analog accumulation: weights are
// signed integers split into differential (positive/negative) columns of
// weight_bits-1 binary planes; inputs are unsigned integers applied one
// bit per cycle on the read word lines; each cycle every active column
// develops an analog partial sum proportional to the number of
// (input bit & weight bit) coincidences, read by a per-column ADC over the
// full row range and shift-added digitally. MC-Dropout masks map onto the
// ports: an input mask gates word lines (CL AND) and an output mask gates
// whole columns (RL AND), so dropped neurons cost neither word-line energy
// nor ADC conversions. Analog non-ideality is a Gaussian disturbance per
// column sum with sigma = noise_coeff * sqrt(active_rows), plus the ADC's
// quantization.
//
// Execution architecture (this header). A CimMacro is one logical layer
// mapped onto a grid of bounded physical arrays: row blocks split the
// input word lines, column blocks split the outputs
// (CimMacroConfig::max_rows/max_cols; 0 = unbounded, a 1x1 grid).
//
//   CimMacro         the layer: quantization grids, the bit-plane encoder,
//     |              gate packing, the grid reduction and the activity
//     |              counters. CimMlp, the MC-Dropout engine, the VO
//     |              pipeline and the energy model talk to it.
//   array (R x C)    one physical array's slice of the weight planes;
//     |              every dense or delta read of an array runs through
//     v              one run_view.
//   ComputeBackend   the column kernel (backend.hpp): one run_columns
//                    entry evaluates the gated coincidence counts, noise
//                    and ADC of an array ("reference", "bitsliced",
//                    registry-extensible).
//
// Grid rules:
//  * every array shares the layer's weight and input grids, so partial
//    sums live on one integer lattice;
//  * an input is encoded ONCE; each row block reads its word-aligned
//    slice of the encoding and of the row gate (max_rows is a multiple
//    of 64 for exactly this reason);
//  * with one row block, each array writes its scaled outputs straight
//    into y. With several, the arrays' unit-scale partials are summed per
//    column in fixed row-block order and scaled once. On the ideal path
//    the partials are exact integers, so any grid is bit-identical to the
//    unbounded layer;
//  * the noisy path models bounded arrays: each array's ADC spans its own
//    row count and each of its column sums takes its own disturbance, so
//    a column crossing R row blocks pays R conversions (visible in
//    MacroStats and the energy model);
//  * noise streams: a dense read hands the caller's stream to every array
//    in (row, column) order. A delta read on a one-array layer passes the
//    caller's stream straight through; on a multi-array grid it draws one
//    root and array k draws from Rng::stream(root, k).
//
// The surface is the three ops of one MC-Dropout iteration: encode the
// input once, run one read gated by the word-line and column masks, and
// (under compute reuse) run one differential delta read. The hot path is
// allocation-free: row gates are packed 64-bit words and all scratch
// lives in per-thread buffers. A layer runs serially on the calling
// thread; callers fan work items over a core::ThreadPool themselves, with
// noise streams keyed on item indices. The activity counters are one
// atomic set per layer, so concurrent workers may bump them.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cimsram/backend.hpp"
#include "core/rng.hpp"

namespace cimnav::cimsram {

/// Static configuration of a macro instance.
struct CimMacroConfig {
  int input_bits = 6;    ///< bit-serial activation precision (unsigned)
  int weight_bits = 6;   ///< signed weight precision (magnitude bits = w-1)
  int adc_bits = 6;      ///< per-column partial-sum ADC resolution
  bool analog_noise = true;
  /// Column-sum disturbance sigma in row-count units per sqrt(active row).
  double noise_coeff = 0.03;
  /// Column-kernel backend: "reference", "bitsliced", or "auto" (the
  /// fastest available). See backend.hpp for the contract between them.
  std::string backend = "auto";
  /// Physical array bounds (0 = unbounded): a layer larger than
  /// max_rows x max_cols runs on a grid of arrays. max_rows must be a
  /// multiple of 64 (word-line gates are packed words).
  int max_rows = 0;
  int max_cols = 0;
};

/// Cumulative activity counters for energy/throughput accounting. For an
/// array grid these count *physical* operations: a column spanning R row
/// blocks costs R ADC conversions per cycle, one per array readout.
struct MacroStats {
  std::uint64_t matvec_calls = 0;
  std::uint64_t wordline_pulses = 0;   ///< (active rows) x cycles
  /// Sum over word-line pulses of the columns each pulse drives (the
  /// physical array width, not the mask-gated column count): a word line
  /// spans the whole array, so its drive energy scales with the wire
  /// length. Narrow arrays are cheaper per pulse; see
  /// energy::macro_stats_energy_j, which prices pulses through this span
  /// (and falls back to flat per-pulse pricing when the counter is zero,
  /// e.g. for hand-built snapshots).
  std::uint64_t wordline_col_drives = 0;
  std::uint64_t adc_conversions = 0;
  std::uint64_t analog_cycles = 0;     ///< input-bit x plane x sign cycles
  std::uint64_t nominal_macs = 0;      ///< active_in x active_out per call

  /// Aggregation across layers (snapshot semantics).
  MacroStats& operator+=(const MacroStats& o);
  /// Activity delta between two snapshots of one counter set.
  MacroStats& operator-=(const MacroStats& o);
  friend MacroStats operator+(MacroStats a, const MacroStats& b) {
    return a += b;
  }
  friend MacroStats operator-(MacroStats a, const MacroStats& b) {
    return a -= b;
  }
};

/// RAII thread-local capture of macro accounting: while an instance is
/// alive on a thread, every accounting event that thread performs (on any
/// layer) is ALSO added, non-atomically, into `*sink` — the layers' own
/// lifetime counters keep advancing unchanged, so captured
/// per-item stats sum back to the counter delta exactly. Captures nest;
/// the innermost sink wins and the previous one is restored on
/// destruction (a null sink suspends capture for the scope).
///
/// This is how the dense-window VO path attributes stage-B activity to
/// individual frames exactly: a grid read runs its arrays serially on the
/// dispatching worker, so a capture scoped around one
/// (frame, iteration) work item sees precisely that item's accounting.
class ScopedStatsCapture {
 public:
  // Out-of-line on purpose: every access to the thread-local sink lives
  // in cim_macro.cpp next to its definition (GCC 12's UBSan mis-reports
  // cross-TU inline TLS stores as null-pointer stores).
  explicit ScopedStatsCapture(MacroStats* sink);
  ~ScopedStatsCapture();
  ScopedStatsCapture(const ScopedStatsCapture&) = delete;
  ScopedStatsCapture& operator=(const ScopedStatsCapture&) = delete;

  /// The calling thread's current capture sink (nullptr when none).
  static MacroStats* active_sink();

 private:
  MacroStats* prev_;
  static thread_local MacroStats* active_sink_;
};

/// Quantized input expanded into packed word-line bit planes: bit b of
/// input row i lives at planes[b * words + i/64] bit i%64. Encoding is
/// mask-independent, so one EncodedInput serves every dropout mask of a
/// frame (the amortization MC-Dropout batching relies on). Each row block
/// of an array grid slices the same encoding word-wise — one reason row
/// bounds are multiples of 64.
struct EncodedInput {
  std::vector<std::uint64_t> planes;
};

/// Packs a 0/1 per-row mask (empty = all active) into word-line gate words.
/// Bits at and above n_rows are left clear.
void pack_row_mask(const std::vector<std::uint8_t>& mask, int n_rows,
                   std::vector<std::uint64_t>& gate);

/// One programmed logical CIM layer holding a weight matrix, mapped onto
/// a grid of bounded physical arrays (1x1 when unbounded).
class CimMacro {
 public:
  /// Quantizes and stores `weights` (row-major, n_out x n_in), split into
  /// a grid bounded by config.max_rows x config.max_cols. The input scale
  /// maps real activations onto the unsigned input grid:
  /// q_x = clamp(round(x / input_scale), 0, 2^input_bits - 1), evaluated
  /// as x * (1 / input_scale) with a precomputed reciprocal — exact ties
  /// may land one code away from the exact-division grid (irrelevant
  /// under the analog noise model, and the ADC clamp bounds it).
  CimMacro(const std::vector<double>& weights, int n_out, int n_in,
           const CimMacroConfig& config, double input_scale);

  CimMacro(const CimMacro&) = delete;
  CimMacro& operator=(const CimMacro&) = delete;

  int n_in() const { return n_in_; }
  int n_out() const { return n_out_; }
  double input_scale() const { return input_scale_; }
  const CimMacroConfig& config() const { return config_; }

  /// Array grid geometry (row blocks x column blocks).
  int grid_rows() const { return static_cast<int>(row_off_.size()) - 1; }
  int grid_cols() const { return static_cast<int>(col_off_.size()) - 1; }

  /// Quantizes `x` onto the input grid and expands the codes into packed
  /// bit planes (ceil(n_in / 64) words each); the encoding can then be
  /// replayed against any number of row gates / output masks. The clamp
  /// runs in double before the integer conversion, so every value has a
  /// defined code: NaN and -inf give 0, +inf and any finite value past
  /// the top of the grid give the top code (circuit::clamp_code's
  /// contract).
  void encode_input(const std::vector<double>& x, EncodedInput& enc) const;

  /// Gated product on a pre-packed row gate (ceil(n_in / 64) words; bits
  /// past n_in must be clear): one read of an MC-Dropout iteration. `y`
  /// is resized to n_out.
  void matvec_encoded(const EncodedInput& enc,
                      const std::vector<std::uint64_t>& row_gate,
                      const std::vector<std::uint8_t>& out_mask,
                      core::Rng& rng, std::vector<double>& y) const;

  /// Full matrix-vector product through the analog arrays. Masks are
  /// optional (empty = all active); values are 0/1 per neuron.
  std::vector<double> matvec(const std::vector<double>& x,
                             const std::vector<std::uint8_t>& in_mask,
                             const std::vector<std::uint8_t>& out_mask,
                             core::Rng& rng) const;

  /// Differential delta product on a pre-built encoding (ONE op per
  /// array per delta step): drives only the word lines whose mask bit
  /// flipped — `add_rows` positively, `rem_rows` on the complementary
  /// bit-lines — and converts the net count with a single signed ADC
  /// conversion per cycle (codes in [-levels, +levels]), writing
  /// W x|A - W x|D to `y` (resized to n_out, a no-op once warm). The
  /// backend's sparse kernel scans only the touched packed words, so the
  /// cost tracks the flips, not the layer width; MacroStats prices
  /// exactly the |A| + |D| driven lines and ONE conversion set per
  /// array. Row blocks where no row flipped are skipped entirely: no word
  /// line fires there, no ADC converts, no stats accrue. Allocation-free
  /// in steady state. At least one list must be non-empty and every row
  /// below n_in (checked before any rng draw or stats update).
  void matvec_delta(const EncodedInput& enc, const std::size_t* add_rows,
                    std::size_t n_add, const std::size_t* rem_rows,
                    std::size_t n_rem, core::Rng& rng,
                    std::vector<double>& y) const;

  /// Ideal (float64) product for reference/testing; applies the same
  /// quantization grids but no analog noise and an exact accumulator.
  std::vector<double> matvec_ideal(const std::vector<double>& x,
                                   const std::vector<std::uint8_t>& in_mask,
                                   const std::vector<std::uint8_t>& out_mask)
      const;

  /// Snapshot of the cumulative activity counters over every array
  /// (thread-safe).
  MacroStats stats() const;
  /// Clears the activity counters (stats are mutable bookkeeping).
  void reset_stats() const;

 private:
  /// One physical array: its place in the layer and its weight bit
  /// planes, contiguous per column:
  /// bits[((j * 2 + sign) * planes + p) * words + w].
  struct Array {
    int word0 = 0;  ///< first input word (row offset / 64)
    int col0 = 0;   ///< first output column
    int n_in = 0;
    int n_out = 0;
    int words = 0;  ///< packed words per plane
    std::vector<std::uint64_t> bits;
  };

  /// One read over the grid. `gate_rem` null = a dense read gated by
  /// `gate_add` and `out_mask` (nullable); non-null = a delta read
  /// netting `gate_add` against it (both n_in-wide packed gates).
  void read(const EncodedInput& enc, const std::uint64_t* gate_add,
            const std::uint64_t* gate_rem, const std::uint8_t* out_mask,
            bool ideal, core::Rng* rng, std::vector<double>& y) const;

  /// One read of one array on its slice of the encoding (`planes`, at
  /// the layer's plane stride) and of the gates. `gate_add`/`gate_rem`
  /// are nullable; a null `word_list` is a dense read of every word,
  /// otherwise only the `n_words` listed words (relative to the array)
  /// can hold set gate bits. Unit scale keeps the shared integer lattice
  /// for the grid reduction. Writes n_out values to `y` and adds the
  /// array's activity to `acct`.
  void run_view(const Array& a, const std::uint64_t* planes,
                const std::uint64_t* gate_add, const std::uint64_t* gate_rem,
                const std::int32_t* word_list, int n_words,
                const std::uint8_t* out_mask, bool ideal, bool unit_scale,
                core::Rng* rng, double* y, MacroStats& acct) const;

  void check_encoding(const EncodedInput& enc) const;
  void account(const MacroStats& s) const;

  CimMacroConfig config_;
  const ComputeBackend* backend_ = nullptr;
  int n_in_ = 0;
  int n_out_ = 0;
  int words_ = 0;   // packed words per plane
  int planes_ = 0;  // weight magnitude planes (weight_bits - 1)
  double weight_scale_ = 1.0;
  double input_scale_ = 1.0;
  double inv_input_scale_ = 1.0;  // hoists the division out of quantize
  std::vector<int> row_off_;  // row-block offsets, size grid_rows + 1
  std::vector<int> col_off_;  // column-block offsets, size grid_cols + 1
  std::vector<Array> arrays_;  // row-major grid [r * grid_cols + c]

  mutable std::atomic<std::uint64_t> stat_calls_{0};
  mutable std::atomic<std::uint64_t> stat_wordline_{0};
  mutable std::atomic<std::uint64_t> stat_wl_cols_{0};
  mutable std::atomic<std::uint64_t> stat_adc_{0};
  mutable std::atomic<std::uint64_t> stat_cycles_{0};
  mutable std::atomic<std::uint64_t> stat_macs_{0};
};

}  // namespace cimnav::cimsram
