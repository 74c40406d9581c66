// In-memory span tracing for the benchmark's traced runs.
//
// Spans are recorded around calls into the library's public entry points
// from the benchmark's own code: nothing inside the library is touched.
// Each thread appends to its own buffer (registered once, under a mutex,
// on the thread's first span), so recording takes no shared lock. A span
// keeps its name, start and end (steady_clock ns since the tracer's
// epoch), the index of its parent span on the same thread, and an id
// (frame, session or tick number). At exit the spans are written as
// Chrome Trace Event JSON, which Perfetto and chrome://tracing load.
//
// Likelihood evaluations are too numerous for one span each, so
// BusyCounter keeps per-thread busy time instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same thread's buffer
  std::int64_t id = -1;      ///< frame / session / tick id (-1 = none)
};

struct ThreadBuffer;

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Recording is off until enable(true); a disabled Scope costs one
  /// relaxed load.
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// RAII span on the calling thread; nests under the thread's open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t id = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadBuffer* buf_ = nullptr;
    std::int32_t index_ = -1;
  };

  /// Sum of durations [s] of every span with this name (all threads).
  double total_s(const char* name) const;
  /// Sum of self times [s]: duration minus the time covered by direct
  /// children (children nest inside their parent on one thread).
  double self_s(const char* name) const;

  /// Writes every span as Chrome Trace Event JSON ("X" complete events,
  /// microseconds, one tid per recording thread). Returns false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  friend class Scope;
  ThreadBuffer* buffer_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = now_ns();
  mutable std::mutex mutex_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Per-thread busy time of one instrumented call site, summed on read.
/// Each thread writes only its own cell (a plain store, no lock and no
/// read-modify-write); reads happen after the pool has joined the work
/// (the dispatch's completion orders them).
class BusyCounter {
 public:
  void add(std::int64_t busy_ns);
  std::int64_t busy_ns() const;

 private:
  struct Cell {
    std::atomic<std::int64_t> busy_ns{0};
  };
  Cell& cell_for_this_thread();

  mutable std::mutex mutex_;  ///< guards cells_ (registration only)
  std::vector<std::unique_ptr<Cell>> cells_;
};

}  // namespace perfbench
