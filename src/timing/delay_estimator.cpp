#include "timing/delay_estimator.h"

#include <algorithm>

#include "util/errors.h"
#include "util/stats.h"

namespace glva::timing {

namespace {

/// Index of the first sample at or after `t`.
std::size_t first_sample_at(const std::vector<double>& times, double t) {
  return static_cast<std::size_t>(
      std::lower_bound(times.begin(), times.end(), t) - times.begin());
}

/// True when `series[k] >= threshold` equals `level` for `persistence`
/// samples starting at k (clipped at the end of the range).
bool holds_level(const std::vector<double>& series, std::size_t k,
                 std::size_t end, bool level, double threshold,
                 std::size_t persistence) {
  const std::size_t stop = std::min(end, k + persistence);
  for (std::size_t i = k; i < stop; ++i) {
    if ((series[i] >= threshold) != level) return false;
  }
  return true;
}

}  // namespace

DelayAnalysis estimate_delays(const sim::Trace& trace,
                              const sim::InputSchedule& schedule,
                              const std::string& output_id, double threshold,
                              std::size_t persistence) {
  if (!(threshold > 0.0)) {
    throw InvalidArgument("estimate_delays: threshold must be positive");
  }
  if (trace.sample_count() == 0) {
    throw InvalidArgument("estimate_delays: empty trace");
  }
  const auto& times = trace.times();
  const auto& output = trace.series(output_id);
  const auto& phases = schedule.phases();

  DelayAnalysis analysis;
  util::RunningStats rise;
  util::RunningStats fall;

  for (std::size_t p = 0; p < phases.size(); ++p) {
    const double t_begin = phases[p].start_time;
    const double t_end =
        p + 1 < phases.size() ? phases[p + 1].start_time : times.back();
    const std::size_t k_begin = first_sample_at(times, t_begin);
    const std::size_t k_end = first_sample_at(times, t_end);
    if (k_begin >= k_end || k_begin >= output.size()) continue;

    // Level at the boundary vs the settled level at the end of the phase
    // (median of the final quarter, robust to flicker).
    const bool level_at_boundary = output[k_begin] >= threshold;
    const std::size_t tail_start = k_begin + (k_end - k_begin) * 3 / 4;
    std::size_t high_count = 0;
    for (std::size_t k = tail_start; k < k_end; ++k) {
      if (output[k] >= threshold) ++high_count;
    }
    const bool settled_level = high_count * 2 > (k_end - tail_start);
    if (settled_level == level_at_boundary) continue;  // no transition here

    // First persistent crossing in the settled direction.
    for (std::size_t k = k_begin; k < k_end; ++k) {
      if ((output[k] >= threshold) == settled_level &&
          holds_level(output, k, k_end, settled_level, threshold, persistence)) {
        DelayEvent event;
        event.phase_index = p;
        event.input_change_time = t_begin;
        event.crossing_time = times[k];
        event.rising = settled_level;
        analysis.events.push_back(event);
        (settled_level ? rise : fall).add(event.delay());
        analysis.max_delay = std::max(analysis.max_delay, event.delay());
        break;
      }
    }
  }

  analysis.mean_rise_delay = rise.mean();
  analysis.mean_fall_delay = fall.mean();
  analysis.recommended_hold_time = analysis.max_delay * 1.25;
  return analysis;
}

}  // namespace glva::timing
