#include "core/experiment.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "exec/parallel_runner.h"
#include "exec/seed_sequence.h"
#include "obs/trace.h"
#include "store/digitizing_sink.h"
#include "store/spill_reader.h"
#include "store/spill_sink.h"
#include "util/errors.h"
#include "util/timer.h"

namespace glva::core {

namespace {

using util::seconds_since;

sim::VirtualLab make_lab(const circuits::CircuitSpec& spec,
                         const ExperimentConfig& config) {
  sim::LabOptions lab_options;
  lab_options.sampling_period = config.sampling_period;
  lab_options.seed = config.seed;

  sim::VirtualLab lab(spec.model, lab_options);
  lab.declare_inputs(spec.input_ids);
  return lab;
}

/// The memory path: materialize the trace, then analyze — the reference
/// the spill and digitize paths are bit-identical to.
ExperimentResult run_experiment_memory(const circuits::CircuitSpec& spec,
                                       const ExperimentConfig& config) {
  sim::VirtualLab lab = make_lab(spec, config);
  const auto sim_start = std::chrono::steady_clock::now();
  sim::SweepResult sweep = [&] {
    GLVA_SPAN("simulate");
    return lab.run_combination_sweep(config.total_time, config.high_level());
  }();
  const double sim_seconds = seconds_since(sim_start);

  ExperimentResult result = reanalyze(spec, config, sweep);
  result.sweep = std::move(sweep);
  result.simulate_seconds = sim_seconds;
  return result;
}

/// The spill path: stream the sweep into a chunked .glvt file (bounded
/// resident memory during the simulation), then re-materialize through
/// SpillReader for analysis. The file survives the run for later replay.
ExperimentResult run_experiment_spill(const circuits::CircuitSpec& spec,
                                      const ExperimentConfig& config) {
  if (config.spill_dir.empty()) {
    throw InvalidArgument(
        "run_experiment: sink 'spill' requires a spill directory "
        "(--spill-dir)");
  }
  std::filesystem::create_directories(config.spill_dir);
  const std::string path =
      (std::filesystem::path(config.spill_dir) /
       (spill_stem_for(spec, config) + ".glvt"))
          .string();

  sim::VirtualLab lab = make_lab(spec, config);
  store::SpillSink::Options spill_options;
  spill_options.seed = config.seed;
  spill_options.sampling_period = config.sampling_period;
  store::SpillSink sink(path, spill_options);

  const auto sim_start = std::chrono::steady_clock::now();
  sim::InputSchedule schedule = [&] {
    GLVA_SPAN("simulate");
    return lab.run_combination_sweep_into(config.total_time,
                                          config.high_level(), sink);
  }();
  const double sim_seconds = seconds_since(sim_start);

  store::SpillReader reader(path);
  sim::SweepResult sweep = [&] {
    GLVA_SPAN("spill.replay");
    return sim::SweepResult{reader.read_all(), std::move(schedule)};
  }();
  ExperimentResult result = reanalyze(spec, config, sweep);
  result.sweep = std::move(sweep);
  result.simulate_seconds = sim_seconds;
  return result;
}

/// The fused sampler→ADC path: stream the sweep straight into per-species
/// bit-planes; the double-precision trace is never allocated, so the
/// analysis-only memory footprint is samples/8 bytes per tracked species.
ExperimentResult run_experiment_digitize(const circuits::CircuitSpec& spec,
                                         const ExperimentConfig& config) {
  std::vector<std::string> tracked = spec.input_ids;
  tracked.push_back(spec.output_id);

  sim::VirtualLab lab = make_lab(spec, config);
  // With a spill directory, the digitized run also leaves a replayable
  // bit-plane .glvt artifact (v2 kBits; ~64× smaller than an analog
  // spill): core::load_digitized hands it back to analyze_packed later
  // with no re-simulation and no re-thresholding.
  store::DigitizingSink sink = [&] {
    if (config.spill_dir.empty()) {
      return store::DigitizingSink(std::move(tracked), config.threshold);
    }
    std::filesystem::create_directories(config.spill_dir);
    store::DigitizingSink::SpillOptions spill;
    spill.path = (std::filesystem::path(config.spill_dir) /
                  (spill_stem_for(spec, config) + ".glvt"))
                     .string();
    spill.seed = config.seed;
    spill.sampling_period = config.sampling_period;
    return store::DigitizingSink(std::move(tracked), config.threshold,
                                 std::move(spill));
  }();

  const auto sim_start = std::chrono::steady_clock::now();
  sim::InputSchedule schedule = [&] {
    GLVA_SPAN("simulate");
    return lab.run_combination_sweep_into(config.total_time,
                                          config.high_level(), sink);
  }();
  const double sim_seconds = seconds_since(sim_start);

  PackedDigitalData data = [&] {
    GLVA_SPAN("digitize");
    return take_digitized(sink, spec.input_ids.size());
  }();

  ExperimentResult result;
  result.circuit_name = spec.name;
  result.config = config;
  result.simulate_seconds = sim_seconds;
  result.sweep.schedule = std::move(schedule);  // trace intentionally empty

  LogicAnalyzer analyzer(AnalyzerConfig{config.threshold, config.fov_ud});
  const auto analyze_start = std::chrono::steady_clock::now();
  {
    GLVA_SPAN("analyze");
    result.extraction =
        analyzer.analyze_packed(data, spec.input_ids, spec.output_id);
  }
  result.analyze_seconds = seconds_since(analyze_start);

  result.verification = verify(result.extraction, spec.expected);
  return result;
}

}  // namespace

std::string spill_stem_for(const circuits::CircuitSpec& spec,
                           const ExperimentConfig& config) {
  return config.spill_stem.empty()
             ? spec.name + "-s" + std::to_string(config.seed)
             : config.spill_stem;
}

ExperimentResult run_experiment(const circuits::CircuitSpec& spec,
                                const ExperimentConfig& config) {
  switch (config.sink) {
    case store::SinkKind::kMemory:
      return run_experiment_memory(spec, config);
    case store::SinkKind::kSpill:
      return run_experiment_spill(spec, config);
    case store::SinkKind::kDigitize:
      return run_experiment_digitize(spec, config);
  }
  throw InvalidArgument("run_experiment: unknown sink kind");
}

void run_batch(const std::vector<circuits::CircuitSpec>& specs,
               const ExperimentConfig& base_config,
               const exec::ParallelRunner& runner,
               const BatchObserver& observer) {
  const exec::SeedSequence seeds(base_config.seed);
  runner.run_reduce<ExperimentResult>(
      specs.size(),
      [&](std::size_t i) {
        ExperimentConfig config = base_config;
        config.seed = seeds.seed_for(i);
        return run_experiment(specs[i], config);
      },
      [&](std::size_t i, ExperimentResult&& result) {
        if (observer) observer(i, std::move(result));
        // `result` dies here: a fleet-sized batch never holds more than
        // the runner's in-flight window of ExperimentResults.
      });
}

std::vector<ExperimentResult> run_batch(
    const std::vector<circuits::CircuitSpec>& specs,
    const ExperimentConfig& base_config, std::size_t jobs) {
  std::vector<ExperimentResult> results;
  results.reserve(specs.size());
  run_batch(specs, base_config, exec::ParallelRunner(jobs),
            [&](std::size_t, ExperimentResult&& result) {
              results.push_back(std::move(result));
            });
  return results;
}

ExperimentResult reanalyze(const circuits::CircuitSpec& spec,
                           const ExperimentConfig& config,
                           const sim::SweepResult& sweep) {
  ExperimentResult result;
  result.circuit_name = spec.name;
  result.config = config;

  LogicAnalyzer analyzer(AnalyzerConfig{config.threshold, config.fov_ud});
  const auto analyze_start = std::chrono::steady_clock::now();
  {
    GLVA_SPAN("analyze");
    result.extraction =
        analyzer.analyze(sweep.trace, spec.input_ids, spec.output_id);
  }
  result.analyze_seconds = seconds_since(analyze_start);

  result.verification = verify(result.extraction, spec.expected);
  return result;
}

}  // namespace glva::core
