#pragma once

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a GLVA layer; nothing inside
// the library is instrumented. Each span carries a name, start and end
// (seconds since the recorder was created), the id of the span that was
// open on the same thread when it began (its parent), and an operation id
// shared by every span of one benchmark operation. Spans stay in memory
// until the run ends, when they are written out as JSON.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  std::size_t parent = kNoParent;  ///< index into the span list
  std::uint64_t op = 0;
};

/// Per-name aggregate of a span set.
struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total = 0.0;  ///< summed duration, seconds
  double self = 0.0;   ///< summed self time, seconds
};

/// A span's self time: its duration minus the part of [start, end) that
/// the union of its children's intervals covers (children are clipped to
/// the parent; overlapping children count once). One entry per span.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Duration and self time summed per name, in first-seen order.
[[nodiscard]] std::vector<SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread has open. Returns the span id for end().
  std::size_t begin(std::string name, std::uint64_t op);
  /// Closes span `id`, opened by begin() on this thread.
  void end(std::size_t id);
  /// Records an already-finished span with explicit times, e.g. from a
  /// thread that only learns a request's interval after its reply.
  void record(std::string name, std::uint64_t op, std::size_t parent,
              Clock::time_point start, Clock::time_point end);

  [[nodiscard]] std::vector<Span> spans() const;
  void write_json(std::ostream& out) const;

 private:
  [[nodiscard]] double since_epoch(Clock::time_point t) const;

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::uint64_t op)
      : recorder_(recorder), id_(recorder.begin(std::move(name), op)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::size_t id_;
};

}  // namespace perfbench
