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
// Execution architecture (this header):
//
//   MacroLike                 the consumer surface. CimMlp, the MC-Dropout
//     ^        ^              engine, the VO pipeline and the energy model
//     |        |              talk to a *layer* through it, so a layer is
//  CimMacro  ShardedMacro     a monolithic array or a shard grid
//     |       (grid of        transparently (see sharded_macro.hpp and the
//     v        CimMacros)     make_macro factory there).
//  ComputeBackend             the column kernel (backend.hpp): encode and
//                             gating are backend-independent; backends
//                             ("reference", "bitsliced", registry-
//                             extensible) evaluate the gated coincidence
//                             counts, noise and ADC for a column range.
//
// The surface is the three ops of one MC-Dropout iteration: encode the
// input once, run one read gated by the word-line and column masks, and
// (under compute reuse) run one differential delta read. The hot path is
// allocation-free: an input is quantized and bit-plane-expanded once into
// an EncodedInput; row gates are packed 64-bit words; all scratch lives in
// a per-thread MacroWorkspace. A macro runs serially on the calling
// thread; callers fan work items over a core::ThreadPool themselves, with
// noise streams keyed on item indices. Activity counters are atomic, may
// be updated from concurrent workers, and aggregate across composite
// macros via the MacroStats operators.
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
  /// Physical array bounds for make_macro (0 = unbounded): a layer larger
  /// than max_rows x max_cols is split into a ShardedMacro grid. max_rows
  /// must be a multiple of 64 (word-line gates are packed words).
  int max_rows = 0;
  int max_cols = 0;
};

/// Cumulative activity counters for energy/throughput accounting. For a
/// sharded layer these count *physical* operations: a column spanning R
/// row shards costs R ADC conversions per cycle, one per shard readout.
struct MacroStats {
  std::uint64_t matvec_calls = 0;
  std::uint64_t wordline_pulses = 0;   ///< (active rows) x cycles
  /// Sum over word-line pulses of the columns each pulse drives (the
  /// physical array width, not the mask-gated column count): a word line
  /// spans the whole array, so its drive energy scales with the wire
  /// length. Narrow shard arrays are cheaper per pulse; see
  /// energy::macro_stats_energy_j, which prices pulses through this span
  /// (and falls back to flat per-pulse pricing when the counter is zero,
  /// e.g. for hand-built snapshots).
  std::uint64_t wordline_col_drives = 0;
  std::uint64_t adc_conversions = 0;
  std::uint64_t analog_cycles = 0;     ///< input-bit x plane x sign cycles
  std::uint64_t nominal_macs = 0;      ///< active_in x active_out per call

  /// Aggregation across macros / shards (snapshot semantics).
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
/// macro / shard) is ALSO added, non-atomically, into `*sink` — the
/// macros' own lifetime counters keep advancing unchanged, so captured
/// per-item stats sum back to the counter delta exactly. Captures nest;
/// the innermost sink wins and the previous one is restored on
/// destruction (a null sink suspends capture for the scope).
///
/// This is how the dense-window VO path attributes stage-B activity to
/// individual frames exactly: a sharded matvec runs its shards serially
/// on the dispatching worker, so a capture scoped around one
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
/// frame (the amortization MC-Dropout batching relies on). Row-sharded
/// macros slice the same encoding word-wise per shard — one reason shard
/// row bounds are multiples of 64.
struct EncodedInput {
  std::vector<std::uint64_t> planes;
};

/// Per-thread scratch buffers for the zero-allocation execution path. All
/// vectors grow to the largest macro they have served and then stay put.
struct MacroWorkspace {
  EncodedInput enc;                   ///< scratch encoding (wrapper APIs)
  std::vector<std::uint64_t> gate;    ///< packed row gate (add side)
  std::vector<std::uint64_t> gate_rem;  ///< packed remove-side gate (delta)
  std::vector<std::uint64_t> gated;   ///< planes & gate, input_bits x words
  std::vector<std::uint64_t> gated_rem;  ///< planes & remove gate (delta)
  std::vector<std::int32_t> word_list;  ///< touched word indices (delta)
};

/// Packs a 0/1 per-row mask (empty = all active) into word-line gate words.
/// Bits at and above n_rows are left clear.
void pack_row_mask(const std::vector<std::uint8_t>& mask, int n_rows,
                   std::vector<std::uint64_t>& gate);

/// Shared encoder behind every MacroLike: quantizes `x` onto the unsigned
/// grid q = clamp(round(x * inv_input_scale), 0, 2^input_bits - 1) and
/// expands the codes into packed bit planes (ceil(n_in / 64) words each).
/// The clamp runs in double before the integer conversion, so every value
/// has a defined code: NaN and -inf give 0, +inf and any finite value past
/// the top of the grid give the top code (circuit::clamp_code's contract).
/// Monolithic and sharded macros with the same input grid produce
/// identical encodings, which is what lets a shard grid slice one logical
/// encoding word-wise.
void encode_input_planes(const std::vector<double>& x, int n_in,
                         int input_bits, double inv_input_scale,
                         EncodedInput& enc);

/// The consumer-facing surface of one logical CIM layer. Implemented by
/// the monolithic CimMacro and by ShardedMacro (a grid of CimMacros);
/// everything downstream of the macro — CimMlp, bnn::mc_predict_cim,
/// vo::VoPipeline, energy accounting, the benches — programs against this,
/// so physical array bounds are an execution detail.
class MacroLike {
 public:
  virtual ~MacroLike() = default;

  virtual int n_in() const = 0;
  virtual int n_out() const = 0;
  /// Packed 64-bit words per word-line bit plane (= ceil(n_in / 64)).
  virtual int gate_words() const = 0;
  virtual double input_scale() const = 0;
  virtual const CimMacroConfig& config() const = 0;

  /// Quantizes and bit-plane-expands `x` once; the encoding can then be
  /// replayed against any number of row gates / output masks.
  virtual void encode_input(const std::vector<double>& x,
                            EncodedInput& enc) const = 0;

  /// Gated product on a pre-packed row gate (gate_words() words; bits
  /// past n_in must be clear): one read of an MC-Dropout iteration. `y`
  /// is resized to n_out.
  virtual void matvec_encoded(const EncodedInput& enc,
                              const std::vector<std::uint64_t>& row_gate,
                              const std::vector<std::uint8_t>& out_mask,
                              core::Rng& rng,
                              std::vector<double>& y) const = 0;

  /// Full matrix-vector product through the analog array. Masks are
  /// optional (empty = all active); values are 0/1 per neuron.
  virtual std::vector<double> matvec(const std::vector<double>& x,
                                     const std::vector<std::uint8_t>& in_mask,
                                     const std::vector<std::uint8_t>& out_mask,
                                     core::Rng& rng) const = 0;

  /// Differential delta product on a pre-built encoding (ONE macro op per
  /// delta step): drives only the word lines whose mask bit flipped —
  /// `add_rows` positively, `rem_rows` on the complementary bit-lines —
  /// and converts the net count with a single signed ADC conversion per
  /// cycle (codes in [-levels, +levels]), writing W x|A - W x|D to `y`
  /// (resized to n_out, a no-op once warm). The backend's sparse kernel
  /// scans only the touched packed words, so the cost tracks the flips,
  /// not the layer width; MacroStats prices exactly the |A| + |D| driven
  /// lines and ONE conversion set (half the two-op formulation).
  /// Allocation-free in steady state. At least one list must be
  /// non-empty (checked before any rng draw or stats update); `rng`
  /// advances once per physical op like any other read.
  virtual void matvec_delta(const EncodedInput& enc,
                            const std::size_t* add_rows, std::size_t n_add,
                            const std::size_t* rem_rows, std::size_t n_rem,
                            core::Rng& rng,
                            std::vector<double>& y) const = 0;

  /// Ideal (float64) product for reference/testing; applies the same
  /// quantization grids but no analog noise and an exact accumulator.
  virtual std::vector<double> matvec_ideal(
      const std::vector<double>& x, const std::vector<std::uint8_t>& in_mask,
      const std::vector<std::uint8_t>& out_mask) const = 0;

  /// Snapshot of the cumulative activity counters (thread-safe). Composite
  /// macros return the aggregate over their shards.
  virtual MacroStats stats() const = 0;
  /// Clears the activity counters (stats are mutable bookkeeping).
  virtual void reset_stats() const = 0;
};

/// A programmed monolithic CIM macro holding one layer's weight matrix.
class CimMacro final : public MacroLike {
 public:
  /// Quantizes and stores `weights` (row-major, n_out x n_in). The input
  /// scale maps real activations onto the unsigned input grid:
  /// q_x = clamp(round(x / input_scale), 0, 2^input_bits - 1), evaluated
  /// as x * (1 / input_scale) with a precomputed reciprocal — exact ties
  /// may land one code away from the exact-division grid (irrelevant
  /// under the analog noise model, and the ADC clamp bounds it).
  /// `weight_scale_override` > 0 forces the weight quantization step
  /// instead of deriving it from this slice's maximum — ShardedMacro uses
  /// it so every shard shares the logical tensor's grid.
  CimMacro(const std::vector<double>& weights, int n_out, int n_in,
           const CimMacroConfig& config, double input_scale,
           double weight_scale_override = 0.0);

  CimMacro(CimMacro&& other) noexcept;
  CimMacro& operator=(CimMacro&& other) noexcept;
  CimMacro(const CimMacro&) = delete;
  CimMacro& operator=(const CimMacro&) = delete;

  int n_in() const override { return n_in_; }
  int n_out() const override { return n_out_; }
  int gate_words() const override { return words_; }
  double input_scale() const override { return input_scale_; }
  const CimMacroConfig& config() const override { return config_; }

  std::vector<double> matvec(const std::vector<double>& x,
                             const std::vector<std::uint8_t>& in_mask,
                             const std::vector<std::uint8_t>& out_mask,
                             core::Rng& rng) const override;

  void matvec_delta(const EncodedInput& enc, const std::size_t* add_rows,
                    std::size_t n_add, const std::size_t* rem_rows,
                    std::size_t n_rem, core::Rng& rng,
                    std::vector<double>& y) const override;

  std::vector<double> matvec_ideal(const std::vector<double>& x,
                                   const std::vector<std::uint8_t>& in_mask,
                                   const std::vector<std::uint8_t>& out_mask)
      const override;

  void encode_input(const std::vector<double>& x,
                    EncodedInput& enc) const override;

  void matvec_encoded(const EncodedInput& enc,
                      const std::vector<std::uint64_t>& row_gate,
                      const std::vector<std::uint8_t>& out_mask,
                      core::Rng& rng, std::vector<double>& y) const override;

  MacroStats stats() const override;
  void reset_stats() const override;

  /// Composite-macro primitive: gated product on a *view* of a larger
  /// encoding. `planes` points at this macro's word range of a logical
  /// encoding whose per-plane stride is `plane_stride` words; `row_gate`
  /// points at the matching gate words (gate_words() of them, bits past
  /// n_in clear); `out_mask` (nullable) covers this macro's n_out columns.
  /// With `unit_scale`, the output keeps the shared quantization grid
  /// (weight_scale and input_scale are applied by the caller after the
  /// shard reduction, so row-shard partial sums add exactly). Writes n_out
  /// values to `y` and accounts stats.
  void run_view(const std::uint64_t* planes, std::size_t plane_stride,
                const std::uint64_t* row_gate, const std::uint8_t* out_mask,
                bool ideal, bool unit_scale, core::Rng* rng,
                MacroWorkspace& ws, double* y) const;

  /// Differential twin of run_view for delta dispatch: one signed macro
  /// op netting `gate_add` against `gate_rem` (either nullable — a shard
  /// may see flips in only one direction; the conversion stays signed
  /// regardless). `word_list` names the `n_words` gate words (sorted,
  /// unique, relative to this macro's word range) that can hold set bits
  /// in EITHER gate — every other word of both gates must be zero. The
  /// driven-line count (= both gates' popcount over the listed words)
  /// sets the noise sigma and the stats pricing; ONE conversion set is
  /// accounted, like any single read.
  void run_view_delta(const std::uint64_t* planes, std::size_t plane_stride,
                      const std::uint64_t* gate_add,
                      const std::uint64_t* gate_rem,
                      const std::int32_t* word_list, int n_words,
                      const std::uint8_t* out_mask, bool ideal,
                      bool unit_scale, core::Rng* rng, MacroWorkspace& ws,
                      double* y) const;

 private:
  /// Engine entry shared by the single-call wrappers: gate the encoding,
  /// run all columns through the backend, account stats.
  void run_gated(const EncodedInput& enc,
                 const std::vector<std::uint64_t>& row_gate,
                 const std::vector<std::uint8_t>& out_mask, bool ideal,
                 core::Rng* rng, MacroWorkspace& ws,
                 std::vector<double>& y) const;

  MacroView view(bool unit_scale) const;

  std::uint64_t count_active_cols(const std::uint8_t* out_mask) const;
  std::uint64_t cycles_per_call() const;
  void account(std::uint64_t calls, std::uint64_t active_rows,
               std::uint64_t active_cols) const;

  CimMacroConfig config_;
  const ComputeBackend* backend_ = nullptr;
  int n_in_ = 0;
  int n_out_ = 0;
  int words_ = 0;   // packed words per plane
  int planes_ = 0;  // weight magnitude planes (weight_bits - 1)
  double weight_scale_ = 1.0;
  double input_scale_ = 1.0;
  double inv_input_scale_ = 1.0;  // hoists the division out of quantize
  /// Weight bit planes, contiguous per column:
  /// bits_[((j * 2 + sign) * planes_ + p) * words_ + w].
  std::vector<std::uint64_t> bits_;

  mutable std::atomic<std::uint64_t> stat_calls_{0};
  mutable std::atomic<std::uint64_t> stat_wordline_{0};
  mutable std::atomic<std::uint64_t> stat_wl_cols_{0};
  mutable std::atomic<std::uint64_t> stat_adc_{0};
  mutable std::atomic<std::uint64_t> stat_cycles_{0};
  mutable std::atomic<std::uint64_t> stat_macs_{0};
};

}  // namespace cimnav::cimsram
