#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

struct ThreadBuffer {
  const Tracer* owner = nullptr;
  int tid = 0;
  std::int32_t open = -1;  ///< innermost open span
  std::vector<Span> spans;
};

Tracer::Tracer() = default;
Tracer::~Tracer() = default;

ThreadBuffer* Tracer::buffer_for_this_thread() {
  // One cached buffer per (thread, tracer); the benchmark has a single
  // tracer, so the cache almost never misses.
  thread_local ThreadBuffer* cached = nullptr;
  if (cached != nullptr && cached->owner == this) return cached;
  std::lock_guard<std::mutex> lock(mutex_);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->owner = this;
  buf->tid = static_cast<int>(buffers_.size());
  buf->spans.reserve(4096);
  buffers_.push_back(std::move(buf));
  cached = buffers_.back().get();
  return cached;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t id) {
  if (!tracer.enabled()) return;
  buf_ = tracer.buffer_for_this_thread();
  Span s;
  s.name = name;
  s.parent = buf_->open;
  s.id = id;
  s.start_ns = now_ns() - tracer.epoch_ns_;
  index_ = static_cast<std::int32_t>(buf_->spans.size());
  buf_->spans.push_back(s);
  buf_->open = index_;
}

Tracer::Scope::~Scope() {
  if (buf_ == nullptr) return;
  Span& s = buf_->spans[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns() - buf_->owner->epoch_ns_;
  buf_->open = s.parent;
}

double Tracer::total_s(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t ns = 0;
  for (const auto& b : buffers_)
    for (const Span& s : b->spans)
      if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::self_s(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t ns = 0;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans)
      if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
    for (const Span& s : b->spans)
      if (s.parent >= 0 &&
          std::strcmp(b->spans[static_cast<std::size_t>(s.parent)].name,
                      name) == 0)
        ns -= s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& b : buffers_) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%d,\"index\":%zu}}",
                   first ? "" : ",", s.name, b->tid,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<long long>(s.id), s.parent, i);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

BusyCounter::Cell& BusyCounter::cell_for_this_thread() {
  thread_local std::unordered_map<const BusyCounter*, Cell*> cells;
  auto it = cells.find(this);
  if (it != cells.end()) return *it->second;
  std::lock_guard<std::mutex> lock(mutex_);
  cells_.push_back(std::make_unique<Cell>());
  Cell* c = cells_.back().get();
  cells.emplace(this, c);
  return *c;
}

void BusyCounter::add(std::int64_t busy_ns) {
  Cell& c = cell_for_this_thread();
  // Single writer per cell: plain load + store, no read-modify-write.
  c.busy_ns.store(c.busy_ns.load(std::memory_order_relaxed) + busy_ns,
                  std::memory_order_relaxed);
}

std::int64_t BusyCounter::busy_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t ns = 0;
  for (const auto& c : cells_) ns += c->busy_ns.load(std::memory_order_relaxed);
  return ns;
}

}  // namespace perfbench
