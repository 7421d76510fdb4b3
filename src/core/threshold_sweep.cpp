#include "core/threshold_sweep.h"

#include "exec/parallel_runner.h"

namespace glva::core {

namespace {

/// Give every point of a spilling sweep its own .glvt file: the points
/// share the base seed (common random numbers), so the default
/// "<circuit>-s<seed>" stem would collide.
ExperimentConfig point_config(const circuits::CircuitSpec& spec,
                              const ExperimentConfig& base_config,
                              double threshold, std::size_t point) {
  ExperimentConfig config = base_config;
  config.threshold = threshold;
  if (config.sink == store::SinkKind::kSpill ||
      (config.sink == store::SinkKind::kDigitize &&
       !config.spill_dir.empty())) {
    config.spill_stem =
        spill_stem_for(spec, base_config) + "-p" + std::to_string(point);
  }
  return config;
}

/// Collecting observer backing the materializing overloads: the streaming
/// commit order is point order, so push_back reassembles the vector the
/// old map-based implementation produced, bit-identically.
ThresholdPointObserver collect_into(ThresholdSweepResult& sweep,
                                    std::size_t count) {
  sweep.points.reserve(count);
  return [&sweep](std::size_t, ThresholdPoint&& point) {
    sweep.points.push_back(std::move(point));
  };
}

}  // namespace

void threshold_sweep(const circuits::CircuitSpec& spec,
                     const ExperimentConfig& base_config,
                     const std::vector<double>& thresholds,
                     const exec::ParallelRunner& runner,
                     const ThresholdPointObserver& observer) {
  runner.run_reduce<ThresholdPoint>(
      thresholds.size(),
      [&](std::size_t i) {
        ExperimentConfig config =
            point_config(spec, base_config, thresholds[i], i);
        config.input_high_level = -1.0;  // re-apply inputs at the threshold
        return ThresholdPoint{thresholds[i], run_experiment(spec, config)};
      },
      [&](std::size_t i, ThresholdPoint&& point) {
        if (observer) observer(i, std::move(point));
        // `point` is destroyed here: memory stays bounded by the runner's
        // in-flight window, not the grid size.
      });
}

ThresholdSweepResult threshold_sweep(const circuits::CircuitSpec& spec,
                                     const ExperimentConfig& base_config,
                                     const std::vector<double>& thresholds,
                                     std::size_t jobs) {
  ThresholdSweepResult sweep;
  threshold_sweep(spec, base_config, thresholds, exec::ParallelRunner(jobs),
                  collect_into(sweep, thresholds.size()));
  return sweep;
}

void threshold_sweep_redigitize(const circuits::CircuitSpec& spec,
                                const ExperimentConfig& base_config,
                                const std::vector<double>& thresholds,
                                const exec::ParallelRunner& runner,
                                const ThresholdPointObserver& observer) {
  // One simulation at the base input level... The base run must keep the
  // analog trace around for re-digitization, so a digitize sink (which
  // never materializes it) falls back to the bit-identical memory path.
  ExperimentConfig base_run_config = base_config;
  if (base_run_config.sink == store::SinkKind::kDigitize) {
    base_run_config.sink = store::SinkKind::kMemory;
  }
  const ExperimentResult base = run_experiment(spec, base_run_config);

  // ...then one analysis per threshold over the shared trace.
  runner.run_reduce<ThresholdPoint>(
      thresholds.size(),
      [&](std::size_t i) {
        ExperimentConfig config = base_config;
        config.threshold = thresholds[i];
        config.input_high_level = base_config.high_level();
        ExperimentResult point = reanalyze(spec, config, base.sweep);
        point.simulate_seconds = 0.0;  // shared simulation, not re-run
        return ThresholdPoint{thresholds[i], std::move(point)};
      },
      [&](std::size_t i, ThresholdPoint&& point) {
        if (observer) observer(i, std::move(point));
      });
}

ThresholdSweepResult threshold_sweep_redigitize(
    const circuits::CircuitSpec& spec, const ExperimentConfig& base_config,
    const std::vector<double>& thresholds, std::size_t jobs) {
  ThresholdSweepResult sweep;
  threshold_sweep_redigitize(spec, base_config, thresholds,
                             exec::ParallelRunner(jobs),
                             collect_into(sweep, thresholds.size()));
  return sweep;
}

}  // namespace glva::core
