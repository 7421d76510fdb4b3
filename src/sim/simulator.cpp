#include "sim/simulator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/rng.h"
#include "store/memory_sink.h"
#include "store/trace_sink.h"
#include "util/errors.h"

namespace glva::sim {

TraceSampler::TraceSampler(const crn::ReactionNetwork& network,
                           double sampling_period, store::TraceSink& sink)
    : sampling_period_(sampling_period), sink_(&sink) {
  if (!(sampling_period > 0.0)) {
    throw InvalidArgument("sampling_period must be positive");
  }
  const std::size_t species = network.species_names().size();
  block_times_.reserve(kBlockSamples);
  block_series_.resize(species);
  for (auto& column : block_series_) column.reserve(kBlockSamples);
  block_view_.resize(species);
  sink_->begin(network.species_names());
}

void TraceSampler::buffer(double grid_time, const std::vector<double>& values) {
  block_times_.push_back(grid_time);
  for (std::size_t s = 0; s < block_series_.size(); ++s) {
    block_series_[s].push_back(values[s]);
  }
  if (block_times_.size() == kBlockSamples) flush_block();
}

void TraceSampler::flush_block() {
  if (block_times_.empty()) return;
  for (std::size_t s = 0; s < block_series_.size(); ++s) {
    block_view_[s] = block_series_[s];
  }
  sink_->append_block(block_times_, block_view_);
  block_times_.clear();
  for (auto& column : block_series_) column.clear();
}

void TraceSampler::advance_before(double t, const std::vector<double>& values) {
  for (;;) {
    const double grid_time =
        static_cast<double>(next_index_) * sampling_period_;
    if (grid_time >= t) return;
    buffer(grid_time, values);
    ++next_index_;
  }
}

void TraceSampler::finish(double t_end, const std::vector<double>& values) {
  for (;;) {
    const double grid_time =
        static_cast<double>(next_index_) * sampling_period_;
    // Tolerate rounding when t_end is an exact multiple of the period.
    if (grid_time > t_end + sampling_period_ * 1e-9) break;
    buffer(grid_time, values);
    ++next_index_;
  }
  flush_block();
  sink_->finish();
}

namespace {

/// Advance `values` from `t_begin` to `t_end` with no clamp changes,
/// reporting state to `sampler` before each event.
void simulate_interval(const crn::ReactionNetwork& network,
                       std::vector<double>& values, double t_begin,
                       double t_end, Rng& rng, TraceSampler& sampler) {
  const std::size_t m = network.reaction_count();
  std::vector<double> propensities(m);
  double total = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    propensities[r] = network.propensity(r, values);
    total += propensities[r];
  }

  double t = t_begin;
  std::size_t steps_since_resum = 0;
  std::uint64_t local_steps = 0;
  constexpr std::size_t kResumInterval = 8192;

  while (total > 0.0) {
    const double tau = rng.exponential(total);
    if (t + tau >= t_end) break;  // state holds through the interval end
    t += tau;
    sampler.advance_before(t, values);

    // Select reaction j with probability propensities[j] / total.
    double target = rng.uniform() * total;
    std::size_t j = 0;
    for (; j + 1 < m; ++j) {
      if (target < propensities[j]) break;
      target -= propensities[j];
    }
    network.fire(j, values);
    ++local_steps;

    // Update only the reactions whose propensity can have changed.
    for (std::size_t affected : network.affected_reactions(j)) {
      const double fresh = network.propensity(affected, values);
      total += fresh - propensities[affected];
      propensities[affected] = fresh;
    }

    if (++steps_since_resum >= kResumInterval) {
      // Re-sum to cancel accumulated floating-point drift.
      total = 0.0;
      for (std::size_t r = 0; r < m; ++r) total += propensities[r];
      steps_since_resum = 0;
    }
    if (total < 0.0) total = 0.0;
  }
  sampler.advance_before(t_end, values);

  // One registry write per interval, not per event: the SSA inner loop
  // stays untouched by instrumentation (the direct method fires exactly
  // one reaction per step).
  if (local_steps > 0) {
    static obs::Counter& steps = obs::counter("sim.ssa.steps");
    static obs::Counter& firings = obs::counter("sim.ssa.firings");
    steps.add(local_steps);
    firings.add(local_steps);
  }
}

}  // namespace

Trace DirectMethod::run(const crn::ReactionNetwork& network,
                        const InputSchedule& schedule, double duration,
                        const SimulationOptions& options) const {
  store::MemorySink sink;
  run_into(network, schedule, duration, options, sink);
  return sink.take();
}

void DirectMethod::run_into(const crn::ReactionNetwork& network,
                            const InputSchedule& schedule, double duration,
                            const SimulationOptions& options,
                            store::TraceSink& sink) const {
  if (!(duration > 0.0)) {
    throw InvalidArgument("simulation duration must be positive");
  }

  std::vector<double> values = network.initial_values();
  std::vector<std::size_t> input_indices;
  input_indices.reserve(schedule.input_ids().size());
  for (const auto& id : schedule.input_ids()) {
    const std::size_t index = network.species_index(id);
    if (!network.is_boundary(index)) {
      throw InvalidArgument(
          "input species '" + id +
          "' must be a boundary-condition species to be clamped");
    }
    input_indices.push_back(index);
  }

  Rng rng(options.seed);
  TraceSampler sampler(network, options.sampling_period, sink);

  const auto& phases = schedule.phases();
  if (!phases.empty() && phases.front().start_time > 0.0) {
    throw InvalidArgument("input schedule must cover t=0");
  }

  double t = 0.0;
  std::size_t phase = 0;
  while (t < duration) {
    // Apply this phase's clamps, then simulate until the next boundary.
    double t_next = duration;
    if (!phases.empty()) {
      for (std::size_t i = 0; i < input_indices.size(); ++i) {
        values[input_indices[i]] = phases[phase].levels[i];
      }
      if (phase + 1 < phases.size()) {
        t_next = std::min(duration, phases[phase + 1].start_time);
      }
    }
    simulate_interval(network, values, t, t_next, rng, sampler);
    t = t_next;
    ++phase;
  }
  sampler.finish(duration, values);
}

}  // namespace glva::sim
