// In-memory span recorder for the serving benchmark.
//
// Spans are recorded by the benchmark's own code around its calls into
// the program (submit-to-ready, picker, partition acquire); nothing is
// added inside the library. With tracing off, Record() is one relaxed
// load and a branch. Spans of one request share its id: the client is a
// single closed loop, so exactly one request is in flight and every span
// recorded between BeginRequest and the next BeginRequest belongs to it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class SpanKind : uint8_t { kRequest, kPick, kAcquire };

struct Span {
  uint32_t request = 0;
  SpanKind kind = SpanKind::kRequest;
  Clock::time_point start;
  Clock::time_point end;

  double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Marks `id` as the request every later span belongs to.
  void BeginRequest(uint32_t id) {
    current_.store(id, std::memory_order_relaxed);
  }

  /// Thread-safe; a no-op while tracing is off.
  void Record(SpanKind kind, Clock::time_point start, Clock::time_point end) {
    if (!enabled()) return;
    const uint32_t id = current_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({id, kind, start, end});
  }

  /// Spans recorded so far, in recording order.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes every span as CSV (request,kind,start_us,end_us; times
  /// relative to the earliest span start). Returns false if the file
  /// can't be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> current_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
