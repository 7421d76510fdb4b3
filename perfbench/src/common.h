#pragma once

// Shared pieces of the benchmark program: options, the run report that
// becomes the final JSON line, raw-sample percentiles, process resource
// probes, seed derivation, and a discarding trace sink.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuits/circuit_spec.h"
#include "obs/metrics.h"
#include "store/trace_sink.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, operation counts, and
/// the metrics of the final JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Marks the run incorrect and prints why (stdout, before the JSON).
  void fail(const std::string& why);
  /// Counts one attempted operation; a false `ok` is a failed one.
  void count(bool ok, const std::string& what_failed);
};

/// A percentile read off raw samples by nearest rank: the smallest sample
/// with at least p% of the samples at or below it. `beyond` is how many
/// samples lie strictly past that rank.
struct Percentile {
  double p = 0.0;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

[[nodiscard]] Percentile percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);
/// "p99 = 12.3 ms (n=1000, 10 beyond)".
[[nodiscard]] std::string describe(const Percentile& q, const char* unit);

/// Up to 31-bit seeds derived from the benchmark seed, one stream per
/// purpose; 31 bits so every seed also survives the CLI/wire integer
/// parser unchanged.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

/// Deterministic 64-bit generator (splitmix64) for request order, hot
/// sets and other benchmark-side choices.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// The 0x0B circuit every workload runs (the paper's running example).
[[nodiscard]] glva::circuits::CircuitSpec circuit();
inline constexpr const char* kCircuit = "0x0B";
/// The golden temporal property of tests/golden/check_0x0B.txt.
inline constexpr const char* kGoldenProperty = "(C->F[0,400]GFP)&noglitch[5]GFP";

/// Peak resident set size of the process in MiB since the last
/// reset_peak_rss() (or process start when the kernel refuses a reset).
[[nodiscard]] double peak_rss_mb();
void reset_peak_rss();
/// User + system CPU seconds of the whole process.
[[nodiscard]] double process_cpu_seconds();

/// A sink that accepts every sample and keeps nothing: timing a sweep into
/// it isolates the simulator (SSA + sampler) from any store layer.
class DiscardSink final : public glva::store::TraceSink {
 public:
  void begin(const std::vector<std::string>&) override {}
  void append(double, const std::vector<double>&) override {}
  void append_block(std::span<const double>,
                    std::span<const std::span<const double>>) override {}
  void finish() override {}
};

/// obs:: counter/histogram deltas between two snapshots. A metric the
/// registry has not seen yet reads 0 (metrics register on first use);
/// in a GLVA_NO_METRICS build every accessor returns nullopt, so callers
/// report "absent" rather than zero.
class ObsDelta {
 public:
  ObsDelta(const glva::obs::Snapshot& before, const glva::obs::Snapshot& after)
      : before_(before), after_(after) {}
  [[nodiscard]] std::optional<double> counter(const std::string& name) const;
  /// Upper bucket boundary holding the nearest-rank p-th percentile of
  /// the observations made between the snapshots (the registry keeps
  /// only bucket counts, so this is a bound, not an interpolation).
  [[nodiscard]] std::optional<double> histogram_bound(const std::string& name,
                                                      double p) const;

 private:
  const glva::obs::Snapshot& before_;
  const glva::obs::Snapshot& after_;
};

/// Value of gauge `name` in `snapshot` (nullopt without metrics).
[[nodiscard]] std::optional<double> gauge(const glva::obs::Snapshot& snapshot,
                                          const std::string& name);

}  // namespace perfbench
