// Built-in admission policies + the name registry (declared in
// fleet/qos.hpp). scripts/check_docs.py greps add_admission_policy calls
// with a string-literal first argument under src/fleet/ and requires
// every such name to appear in the docs.
//
// All four built-ins share one shape: copy the view pointers into a
// member scratch vector, std::sort (in-place — std::stable_sort
// allocates and would break the engine's zero-steady-state-allocation
// probe) with a total, deterministic comparator whose final key is
// admit_seq (unique per session), then emit a prefix. Determinism
// therefore never depends on sort stability or slot reuse.
#include "fleet/qos.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "core/name_registry.hpp"

namespace cimnav::fleet {
namespace {

constexpr std::int64_t kNoDeadline =
    std::numeric_limits<std::int64_t>::max();

/// deadline_tick with the no-deadline sentinel mapped past every real
/// deadline, so EDF comparators sort deadline-free sessions last.
std::int64_t effective_deadline(const SessionView& v) {
  return v.deadline_tick < 0 ? kNoDeadline : v.deadline_tick;
}

/// Round-robin-within-class order: least recently scheduled first,
/// admission order as the tiebreak (never-scheduled sessions carry
/// last_scheduled_tick 0, so they run before anything already served).
bool rr_before(const SessionView& a, const SessionView& b) {
  if (a.last_scheduled_tick != b.last_scheduled_tick)
    return a.last_scheduled_tick < b.last_scheduled_tick;
  return a.admit_seq < b.admit_seq;
}

/// Shared scratch + prefix emission for the sorting built-ins.
class SortingPolicy : public AdmissionPolicy {
 protected:
  /// Fills order_ with the views sorted by `before` (a strict weak
  /// ordering that must end on admit_seq, making it total).
  template <typename Before>
  void sort_views(const SessionView* views, std::size_t n,
                  Before before) {
    order_.clear();
    for (std::size_t i = 0; i < n; ++i) order_.push_back(&views[i]);
    std::sort(order_.begin(), order_.end(),
              [&](const SessionView* a, const SessionView* b) {
                return before(*a, *b);
              });
  }

  void emit_prefix(std::size_t limit, std::vector<std::uint32_t>& out) {
    const std::size_t take = std::min(limit, order_.size());
    for (std::size_t i = 0; i < take; ++i)
      out.push_back(order_[i]->slot);
  }

  std::vector<const SessionView*> order_;
};

/// "fifo": everyone runs, slot order — the pre-QoS scheduler verbatim.
/// Under a bounded working set the oldest admissions run first, which
/// is what an explicit queue would have done.
class FifoPolicy final : public SortingPolicy {
 public:
  std::string_view name() const override { return "fifo"; }

  void select(const SessionView* views, std::size_t n, std::size_t limit,
              const SelectContext&,
              std::vector<std::uint32_t>& out) override {
    if (limit >= n) {
      for (std::size_t i = 0; i < n; ++i) out.push_back(views[i].slot);
      return;
    }
    sort_views(views, n, [](const SessionView& a, const SessionView& b) {
      return a.admit_seq < b.admit_seq;
    });
    emit_prefix(limit, out);
  }
};

/// "priority": strict classes — a lower class never takes a working-set
/// seat while a higher class is runnable — with least-recently-scheduled
/// round-robin inside each class.
class PriorityPolicy final : public SortingPolicy {
 public:
  std::string_view name() const override { return "priority"; }

  void select(const SessionView* views, std::size_t n, std::size_t limit,
              const SelectContext&,
              std::vector<std::uint32_t>& out) override {
    sort_views(views, n, [](const SessionView& a, const SessionView& b) {
      if (a.priority != b.priority) return a.priority > b.priority;
      return rr_before(a, b);
    });
    emit_prefix(limit, out);
  }
};

/// "deadline": earliest deadline first on the absolute deadline tick;
/// deadline-free sessions fill whatever seats remain.
class DeadlinePolicy final : public SortingPolicy {
 public:
  std::string_view name() const override { return "deadline"; }

  void select(const SessionView* views, std::size_t n, std::size_t limit,
              const SelectContext&,
              std::vector<std::uint32_t>& out) override {
    sort_views(views, n, [](const SessionView& a, const SessionView& b) {
      const std::int64_t da = effective_deadline(a);
      const std::int64_t db = effective_deadline(b);
      if (da != db) return da < db;
      return a.admit_seq < b.admit_seq;
    });
    emit_prefix(limit, out);
  }
};

/// "energy_aware": priority order with two energy interventions —
/// sessions over their own QosSpec budget sort below every in-budget
/// class, and the working set is cut at the first session whose
/// projected tick energy would push the cumulative spend past the fleet
/// budget. The scheduled set is always a prefix of the sorted order
/// (the property tests rely on that), and never empty.
class EnergyAwarePolicy final : public SortingPolicy {
 public:
  std::string_view name() const override { return "energy_aware"; }

  void select(const SessionView* views, std::size_t n, std::size_t limit,
              const SelectContext& ctx,
              std::vector<std::uint32_t>& out) override {
    sort_views(views, n, [](const SessionView& a, const SessionView& b) {
      if (a.over_session_budget != b.over_session_budget)
        return !a.over_session_budget;
      if (a.priority != b.priority) return a.priority > b.priority;
      return rr_before(a, b);
    });
    const std::size_t take = std::min(limit, order_.size());
    double projected = 0.0;
    for (std::size_t i = 0; i < take; ++i) {
      const SessionView& v = *order_[i];
      if (!out.empty() && ctx.tick_energy_budget_j > 0.0 &&
          projected + v.projected_tick_energy_j > ctx.tick_energy_budget_j)
        break;  // shed v and everything ranked below it
      projected += v.projected_tick_energy_j;
      out.push_back(v.slot);
    }
  }
};

using Factory = std::function<std::unique_ptr<AdmissionPolicy>()>;
using AdmissionRegistry = core::NameRegistry<Factory>;

AdmissionRegistry& registry() {
  static AdmissionRegistry r("admission policy");
  static const bool built_ins = [&] {
    const auto add_admission_policy =
        [&](const char* name, const char* description, Factory factory) {
          r.add(name, description, std::move(factory));
        };
    add_admission_policy(
        "fifo",
        "every runnable session each tick in slot order (the pre-QoS "
        "scheduler, bit-for-bit); oldest admissions first under a "
        "bounded working set",
        [] { return std::make_unique<FifoPolicy>(); });
    add_admission_policy(
        "priority",
        "strict priority classes, least-recently-scheduled round-robin "
        "within a class",
        [] { return std::make_unique<PriorityPolicy>(); });
    add_admission_policy(
        "deadline",
        "earliest-deadline-first on the absolute deadline tick derived "
        "from target_latency_ticks; deadline-free sessions run last",
        [] { return std::make_unique<DeadlinePolicy>(); });
    add_admission_policy(
        "energy_aware",
        "priority order cut to the fleet J/tick budget by projected "
        "per-session tick energy; over-budget sessions demoted below "
        "every in-budget class",
        [] { return std::make_unique<EnergyAwarePolicy>(); });
    return true;
  }();
  (void)built_ins;
  return r;
}

}  // namespace

std::unique_ptr<AdmissionPolicy> make_admission_policy(
    std::string_view name) {
  return registry().lookup(name)();
}

}  // namespace cimnav::fleet
