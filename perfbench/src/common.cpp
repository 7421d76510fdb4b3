#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "circuits/circuit_repository.h"
#include "exec/seed_sequence.h"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::fail(const std::string& why) {
  if (correct) std::cout << "INCORRECT: " << why << "\n";
  correct = false;
}

void Report::count(bool ok, const std::string& what_failed) {
  ++attempted;
  if (!ok) {
    ++failed;
    fail(what_failed);
  }
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile q;
  q.p = p;
  q.n = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, samples.size()) - 1;
  q.value = samples[index];
  q.beyond = samples.size() - 1 - index;
  return q;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0).value;
}

std::string describe(const Percentile& q, const char* unit) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "p%g = %.6g %s (n=%zu, %zu beyond)",
                q.p, q.value, unit, q.n, q.beyond);
  return buffer;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return glva::exec::derive_seed(seed, stream) & 0x7fffffffULL;
}

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

glva::circuits::CircuitSpec circuit() {
  return glva::circuits::CircuitRepository::build(kCircuit);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

void reset_peak_rss() {
  // "5" resets the VmHWM high-water mark to the current RSS; where the
  // kernel refuses, peak_rss_mb() simply keeps covering the whole process.
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

template <typename Sample>
const Sample* find_named(const std::vector<Sample>& samples,
                         const std::string& name) {
  for (const Sample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

std::optional<double> ObsDelta::counter(const std::string& name) const {
  if (!glva::obs::metrics_enabled()) return std::nullopt;
  // Metrics register on first use: a name not yet registered counted 0.
  const auto* after = find_named(after_.counters, name);
  if (after == nullptr) return 0.0;
  const auto* before = find_named(before_.counters, name);
  return static_cast<double>(after->value - (before ? before->value : 0));
}

std::optional<double> ObsDelta::histogram_bound(const std::string& name,
                                                double p) const {
  if (!glva::obs::metrics_enabled()) return std::nullopt;
  const auto* after = find_named(after_.histograms, name);
  if (after == nullptr) return 0.0;
  const auto* before = find_named(before_.histograms, name);
  std::vector<std::uint64_t> delta = after->buckets;
  if (before != nullptr) {
    for (std::size_t i = 0; i < delta.size() && i < before->buckets.size(); ++i) {
      delta[i] -= before->buckets[i];
    }
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : delta) total += c;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total)));
  const std::vector<double>& bounds = glva::obs::histogram_boundaries();
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    seen += delta[i];
    // The overflow bucket reports the largest boundary it lies beyond.
    if (seen >= rank) return bounds[std::min(i, bounds.size() - 1)];
  }
  return bounds.back();
}

std::optional<double> gauge(const glva::obs::Snapshot& snapshot,
                            const std::string& name) {
  if (!glva::obs::metrics_enabled()) return std::nullopt;
  const auto* sample = find_named(snapshot.gauges, name);
  if (sample == nullptr) return 0.0;
  return static_cast<double>(sample->value);
}

}  // namespace perfbench
