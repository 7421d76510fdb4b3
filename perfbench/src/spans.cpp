#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last, tagged with their
/// recorder so two recorders never adopt each other's spans as parents.
thread_local std::vector<std::pair<const SpanRecorder*, std::size_t>>
    open_spans;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoParent) {
      if (spans[i].parent >= spans.size()) {
        throw std::invalid_argument("span parent out of range");
      }
      children[spans[i].parent].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<double, double>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const double lo = std::max(spans[c].start, span.start);
      const double hi = std::min(spans[c].end, span.end);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (span.end - span.start) - covered;
  }
  return self;
}

std::vector<SpanTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::vector<SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const SpanTotals& t) {
                             return t.name == spans[i].name;
                           });
    if (it == totals.end()) {
      totals.push_back(SpanTotals{spans[i].name, 0, 0.0, 0.0});
      it = totals.end() - 1;
    }
    ++it->count;
    it->total += spans[i].end - spans[i].start;
    it->self += self[i];
  }
  return totals;
}

std::size_t SpanRecorder::begin(std::string name, std::uint64_t op) {
  std::size_t parent = kNoParent;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  const double start = since_epoch(Clock::now());
  std::size_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = spans_.size();
    spans_.push_back(Span{std::move(name), start, start, parent, op});
  }
  open_spans.emplace_back(this, id);
  return id;
}

void SpanRecorder::end(std::size_t id) {
  const double end = since_epoch(Clock::now());
  const auto entry = std::make_pair(static_cast<const SpanRecorder*>(this), id);
  const auto it = std::find(open_spans.rbegin(), open_spans.rend(), entry);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = end;
}

void SpanRecorder::record(std::string name, std::uint64_t op,
                          std::size_t parent, Clock::time_point start,
                          Clock::time_point end) {
  const double s = since_epoch(start);
  const double e = since_epoch(end);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), s, e, parent, op});
}

double SpanRecorder::since_epoch(Clock::time_point t) const {
  return std::chrono::duration<double>(t - epoch_).count();
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_json(std::ostream& out) const {
  const std::vector<Span> all = spans();
  out << "{\"spans\": [";
  char buffer[128];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << json_escape(s.name) << "\", ";
    std::snprintf(buffer, sizeof(buffer),
                  "\"start_s\": %.9f, \"end_s\": %.9f, ", s.start, s.end);
    out << buffer << "\"parent\": ";
    if (s.parent == kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ", \"op\": " << s.op << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
