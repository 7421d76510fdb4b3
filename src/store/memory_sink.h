#pragma once

#include "sim/trace.h"
#include "store/trace_sink.h"

namespace glva::store {

/// The reference sink: materialize every row into a `sim::Trace`, exactly
/// as the pre-streaming simulator did. `sim::DirectMethod::run(...)` is a
/// thin wrapper over this sink, so the memory path and the historical
/// "return a Trace" contract are one and the same — bit-identical by
/// construction, and the baseline the spill and digitizing sinks are
/// tested against.
class MemorySink final : public TraceSink {
public:
  void begin(const std::vector<std::string>& species_names) override {
    trace_ = sim::Trace(species_names);
  }

  void append(double time, const std::vector<double>& values) override {
    trace_.append(time, values);
  }

  void append_block(std::span<const double> times,
                    std::span<const std::span<const double>> series) override {
    trace_.append_block(times, series);
  }

  void finish() override {}

  /// The accumulated trace (valid after finish(); empty before begin()).
  [[nodiscard]] const sim::Trace& trace() const noexcept { return trace_; }

  /// Move the accumulated trace out.
  [[nodiscard]] sim::Trace take() noexcept { return std::move(trace_); }

private:
  sim::Trace trace_;
};

}  // namespace glva::store
