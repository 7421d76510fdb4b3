// Self-time computation checked against a hand-built nested span set.
// Build and run through `python3 perfbench/run.py --self-test`.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"

namespace {

int failures = 0;

void expect_near(double got, double want, const std::string& what) {
  if (std::fabs(got - want) > 1e-12) {
    std::printf("FAIL %s: got %.12f, want %.12f\n", what.c_str(), got, want);
    ++failures;
  }
}

void expect_true(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures;
  }
}

using perfbench::kNoParent;
using perfbench::Span;

// op [0, 10)
//   a [1, 4)            self 3 - 1 (b) = 2
//     b [2, 3)          self 1
//   c [3.5, 6)          overlaps a on [3.5, 4): covered once in op
//   d [8, 12)           sticks out of op: only [8, 10) counts for op
//     e [9, 9)          zero length
// op2 [20, 25) no children, different op id
void hand_built_set() {
  const std::vector<Span> spans = {
      {"op", 0.0, 10.0, kNoParent, 1},  // 0
      {"a", 1.0, 4.0, 0, 1},            // 1
      {"b", 2.0, 3.0, 1, 1},            // 2
      {"c", 3.5, 6.0, 0, 1},            // 3
      {"d", 8.0, 12.0, 0, 1},           // 4
      {"e", 9.0, 9.0, 4, 1},            // 5
      {"op", 20.0, 25.0, kNoParent, 2}  // 6
  };
  const std::vector<double> self = perfbench::self_times(spans);
  // op: children cover [1, 6) ∪ [8, 10) = 7 of 10.
  expect_near(self[0], 3.0, "op self");
  expect_near(self[1], 2.0, "a self");
  expect_near(self[2], 1.0, "b self");
  expect_near(self[3], 2.5, "c self");
  expect_near(self[4], 4.0, "d self");
  expect_near(self[5], 0.0, "e self");
  expect_near(self[6], 5.0, "op2 self");

  const auto totals = perfbench::totals_by_name(spans);
  expect_true(totals.size() == 6, "six distinct names");
  expect_true(totals[0].name == "op" && totals[0].count == 2, "op count");
  expect_near(totals[0].total, 15.0, "op total");
  expect_near(totals[0].self, 8.0, "op self total");
}

// Self times always add back up to the root's duration when every child
// lies inside its parent and siblings do not overlap.
void self_times_partition_the_root() {
  const std::vector<Span> spans = {
      {"root", 0.0, 100.0, kNoParent, 7},
      {"x", 10.0, 40.0, 0, 7},
      {"y", 15.0, 20.0, 1, 7},
      {"z", 25.0, 35.0, 1, 7},
      {"w", 50.0, 90.0, 0, 7},
      {"v", 60.0, 61.0, 4, 7},
  };
  double sum = 0.0;
  for (const double s : perfbench::self_times(spans)) sum += s;
  expect_near(sum, 100.0, "self times partition the root");
}

void recorder_links_parents_per_thread() {
  perfbench::SpanRecorder recorder;
  {
    const perfbench::ScopedSpan outer(recorder, "outer", 3);
    {
      const perfbench::ScopedSpan inner(recorder, "inner", 3);
    }
    std::thread([&] {
      const perfbench::ScopedSpan other(recorder, "other-thread", 4);
    }).join();
  }
  const auto spans = recorder.spans();
  expect_true(spans.size() == 3, "three spans recorded");
  expect_true(spans[0].parent == kNoParent, "outer is a root");
  expect_true(spans[1].parent == 0, "inner's parent is outer");
  expect_true(spans[2].parent == kNoParent,
              "a span on another thread does not adopt outer");
  expect_true(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end,
              "inner lies inside outer");
}

}  // namespace

int main() {
  hand_built_set();
  self_times_partition_the_root();
  recorder_links_parents_per_thread();
  if (failures != 0) {
    std::printf("spans_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("spans_test: all checks passed\n");
  return 0;
}
