#include "props/check.h"

#include <bit>
#include <filesystem>
#include <sstream>
#include <utility>

#include "core/adc.h"
#include "exec/seed_sequence.h"
#include "logic/combination_segments.h"
#include "props/monitor.h"
#include "sim/virtual_lab.h"
#include "store/digitizing_sink.h"
#include "store/spill_reader.h"
#include "store/spill_sink.h"
#include "util/errors.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace glva::props {

namespace {

std::vector<std::string> plane_names(const circuits::CircuitSpec& spec) {
  std::vector<std::string> names = spec.input_ids;
  names.push_back(spec.output_id);
  return names;
}

sim::VirtualLab make_lab(const circuits::CircuitSpec& spec,
                         const core::ExperimentConfig& config) {
  sim::LabOptions lab_options;
  lab_options.sampling_period = config.sampling_period;
  lab_options.seed = config.seed;

  sim::VirtualLab lab(spec.model, lab_options);
  lab.declare_inputs(spec.input_ids);
  return lab;
}

/// The spill acquisition: stream the sweep to its .glvt (one file per
/// replicate, same naming as the ensemble runner) and hand back the file
/// path for run_one to replay.
std::string spill_sweep(const circuits::CircuitSpec& spec,
                        const core::ExperimentConfig& config) {
  sim::VirtualLab lab = make_lab(spec, config);
  std::filesystem::create_directories(config.spill_dir);
  const std::string path = (std::filesystem::path(config.spill_dir) /
                            (core::spill_stem_for(spec, config) + ".glvt"))
                               .string();
  store::SpillSink::Options spill_options;
  spill_options.seed = config.seed;
  spill_options.sampling_period = config.sampling_period;
  store::SpillSink sink(path, spill_options);
  // The schedule is not needed here: combination segments are rebuilt
  // from the packed input planes.
  static_cast<void>(
      lab.run_combination_sweep_into(config.total_time, config.high_level(),
                                     sink));
  return path;
}

/// First zero of `verdict` in samples [begin, end), or kNoViolation.
std::size_t first_zero(const logic::BitStream& verdict, std::size_t begin,
                       std::size_t end) {
  const std::span<const std::uint64_t> v = verdict.words();
  for (std::size_t w = begin / 64; w * 64 < end; ++w) {
    std::uint64_t bad = ~v[w];
    if (w == begin / 64) bad &= ~std::uint64_t{0} << (begin % 64);
    if (bad == 0) continue;
    const std::size_t k =
        w * 64 + static_cast<std::size_t>(std::countr_zero(bad));
    return k < end ? k : kNoViolation;
  }
  return kNoViolation;
}

/// Evaluation of one replicate: one monitor pass per property, then a
/// per-combination reduction over the combination segments — satisfaction
/// counts by range popcount, the first violation as the first zero of the
/// verdict in the earliest segment of the combination that has one.
CheckReplicate evaluate_replicate(const core::PackedDigitalData& data,
                                  const std::vector<std::string>& names,
                                  const std::vector<PropertyPtr>& properties,
                                  std::uint64_t seed) {
  CheckReplicate replicate;
  replicate.seed = seed;
  replicate.sample_count = data.sample_count();

  const std::vector<logic::CombinationSegment> segments =
      logic::combination_segments(data.inputs);
  const std::size_t combinations = std::size_t{1} << data.input_count();
  PackedNamedPlanes planes;
  planes.names = names;
  for (const logic::BitStream& input : data.inputs) {
    planes.planes.push_back(&input);
  }
  planes.planes.push_back(&data.output);

  for (const PropertyPtr& property : properties) {
    const logic::BitStream verdict = evaluate_packed(*property, planes);

    PropertyCheck check;
    check.property = to_string(*property);
    check.samples = data.sample_count();
    check.combinations.resize(combinations);
    for (std::size_t c = 0; c < combinations; ++c) {
      check.combinations[c].combination = c;
    }
    for (const logic::CombinationSegment& segment : segments) {
      CombinationCheck& comb = check.combinations[segment.combination];
      const std::size_t length = segment.end - segment.begin;
      const std::size_t satisfied =
          verdict.popcount(segment.begin, segment.end);
      comb.samples += length;
      comb.satisfied += satisfied;
      if (satisfied < length && comb.first_violation == kNoViolation) {
        comb.first_violation = first_zero(verdict, segment.begin, segment.end);
        if (check.first_violation == kNoViolation) {
          check.first_violation = comb.first_violation;
        }
      }
    }
    check.satisfied = verdict.popcount();
    replicate.properties.push_back(std::move(check));
  }
  return replicate;
}

/// One replicate end to end: simulate under the configured sink, digitize
/// into bit planes, evaluate every property.
CheckReplicate run_one(const circuits::CircuitSpec& spec,
                       const core::ExperimentConfig& config,
                       const std::vector<std::string>& names,
                       const std::vector<PropertyPtr>& properties) {
  if (config.sink == store::SinkKind::kDigitize) {
    std::vector<std::string> tracked = spec.input_ids;
    tracked.push_back(spec.output_id);
    sim::VirtualLab lab = make_lab(spec, config);
    // With a spill directory, the digitized replicate also leaves a
    // replayable bit-plane .glvt artifact, per-replicate stem — the same
    // tee run_experiment's digitize path uses.
    store::DigitizingSink sink = [&] {
      if (config.spill_dir.empty()) {
        return store::DigitizingSink(std::move(tracked), config.threshold);
      }
      std::filesystem::create_directories(config.spill_dir);
      store::DigitizingSink::SpillOptions spill;
      spill.path = (std::filesystem::path(config.spill_dir) /
                    (core::spill_stem_for(spec, config) + ".glvt"))
                       .string();
      spill.seed = config.seed;
      spill.sampling_period = config.sampling_period;
      return store::DigitizingSink(std::move(tracked), config.threshold,
                                   std::move(spill));
    }();
    static_cast<void>(lab.run_combination_sweep_into(
        config.total_time, config.high_level(), sink));
    const core::PackedDigitalData data =
        core::take_digitized(sink, spec.input_ids.size());
    return evaluate_replicate(data, names, properties, config.seed);
  }

  if (config.sink == store::SinkKind::kSpill) {
    // Out of core: replay the spill chunk-by-chunk into the streaming
    // ADC, so resident memory stays one chunk of doubles plus the bit
    // planes — the full trace is never re-materialized. Bit-identical to
    // digitizing a read_all() trace (the DigitizingSink contract).
    store::SpillReader reader(spill_sweep(spec, config));
    std::vector<std::string> tracked = spec.input_ids;
    tracked.push_back(spec.output_id);
    store::DigitizingSink digitizer(std::move(tracked), config.threshold);
    reader.replay(digitizer);
    const core::PackedDigitalData data =
        core::take_digitized(digitizer, spec.input_ids.size());
    return evaluate_replicate(data, names, properties, config.seed);
  }

  sim::VirtualLab lab = make_lab(spec, config);
  const sim::Trace trace = std::move(
      lab.run_combination_sweep(config.total_time, config.high_level()).trace);
  const core::PackedDigitalData data = core::digitize_packed(
      trace, spec.input_ids, spec.output_id, config.threshold);
  return evaluate_replicate(data, names, properties, config.seed);
}

std::string violation_label(std::size_t index, double sampling_period) {
  if (index == kNoViolation) return "-";
  return "t=" +
         util::format_double(static_cast<double>(index) * sampling_period, 6);
}

}  // namespace

CheckResult run_check(const circuits::CircuitSpec& spec,
                      const core::ExperimentConfig& config,
                      const std::vector<PropertyPtr>& properties,
                      std::size_t replicates,
                      const exec::ParallelRunner& runner,
                      const CheckObserver& observer) {
  if (replicates == 0) {
    throw InvalidArgument("run_check: need at least one replicate");
  }
  if (properties.empty()) {
    throw InvalidArgument("run_check: need at least one property (--property)");
  }
  const std::vector<std::string> names = plane_names(spec);
  for (const PropertyPtr& property : properties) {
    if (!property) throw InvalidArgument("run_check: null property");
    validate_atoms(*property, names);
  }
  // Mirror run_experiment's sink validation up front, before any
  // replicate simulates.
  if (config.sink == store::SinkKind::kSpill && config.spill_dir.empty()) {
    throw InvalidArgument(
        "run_check: sink 'spill' requires a spill directory (--spill-dir)");
  }

  CheckResult result;
  result.circuit_name = spec.name;
  result.base_config = config;
  result.replicate_count = replicates;
  result.input_count = spec.input_ids.size();
  result.input_names = spec.input_ids;
  result.output_name = spec.output_id;

  const exec::SeedSequence seeds(config.seed);
  result.replicate_seeds = seeds.first(replicates);

  struct Accumulator {
    util::RunningStats fraction;
    std::size_t violated = 0;
    std::vector<util::RunningStats> combination;
  };
  std::vector<Accumulator> accumulators(properties.size());

  runner.run_reduce<CheckReplicate>(
      replicates,
      [&](std::size_t r) {
        core::ExperimentConfig replicate_config = config;
        replicate_config.seed = result.replicate_seeds[r];
        if (replicate_config.sink == store::SinkKind::kSpill ||
            (replicate_config.sink == store::SinkKind::kDigitize &&
             !replicate_config.spill_dir.empty())) {
          replicate_config.spill_stem =
              core::spill_stem_for(spec, config) + "-r" + std::to_string(r);
        }
        return run_one(spec, replicate_config, names, properties);
      },
      [&](std::size_t r, CheckReplicate&& replicate) {
        if (r == 0) {
          result.sample_count = replicate.sample_count;
          result.first = replicate;
        }
        for (std::size_t i = 0; i < properties.size(); ++i) {
          const PropertyCheck& check = replicate.properties[i];
          Accumulator& accumulator = accumulators[i];
          accumulator.fraction.add(check.fraction());
          if (check.first_violation != kNoViolation) ++accumulator.violated;
          if (accumulator.combination.size() < check.combinations.size()) {
            accumulator.combination.resize(check.combinations.size());
          }
          for (std::size_t c = 0; c < check.combinations.size(); ++c) {
            accumulator.combination[c].add(check.combinations[c].fraction());
          }
        }
        if (observer) observer(r, replicate);
      });

  for (std::size_t i = 0; i < properties.size(); ++i) {
    PropertyCheckStats stats;
    stats.property = to_string(*properties[i]);
    stats.fraction = core::mean_confidence(accumulators[i].fraction);
    stats.violated_replicates = accumulators[i].violated;
    for (const util::RunningStats& comb : accumulators[i].combination) {
      stats.combination_fraction.push_back(core::mean_confidence(comb));
    }
    result.properties.push_back(std::move(stats));
  }
  return result;
}

CheckResult run_check(const circuits::CircuitSpec& spec,
                      const core::ExperimentConfig& config,
                      const std::vector<PropertyPtr>& properties,
                      std::size_t replicates, std::size_t jobs,
                      const CheckObserver& observer) {
  return run_check(spec, config, properties, replicates,
                   exec::ParallelRunner(jobs), observer);
}

std::string render_check_summary(const CheckResult& result,
                                 double min_satisfaction) {
  std::ostringstream out;
  out << "circuit:    " << result.circuit_name << "\n"
      << "replicates: " << result.replicate_count << " (base seed "
      << result.base_config.seed << ", per-replicate streams)\n"
      << "samples:    " << result.sample_count << " per replicate\n"
      << "properties: " << result.properties.size() << "\n";

  const logic::TruthTable labels(result.input_count);
  const double period = result.base_config.sampling_period;
  for (std::size_t i = 0; i < result.properties.size(); ++i) {
    const PropertyCheckStats& stats = result.properties[i];
    const PropertyCheck& first = result.first.properties[i];
    out << "\nproperty:   " << stats.property << "\n";

    util::TextTable table(
        {"comb", "samples", "satisfied", "fraction", "first violation"});
    table.set_align(1, util::TextTable::Align::kRight);
    table.set_align(2, util::TextTable::Align::kRight);
    table.set_align(3, util::TextTable::Align::kRight);
    table.set_align(4, util::TextTable::Align::kRight);
    for (const CombinationCheck& comb : first.combinations) {
      table.add_row({labels.combination_label(comb.combination),
                     std::to_string(comb.samples),
                     std::to_string(comb.satisfied),
                     util::format_double(comb.fraction(), 6),
                     violation_label(comb.first_violation, period)});
    }
    table.add_row({"all", std::to_string(first.samples),
                   std::to_string(first.satisfied),
                   util::format_double(first.fraction(), 6),
                   violation_label(first.first_violation, period)});
    out << table.str();

    if (result.replicate_count > 1) {
      out << "across replicates: fraction "
          << util::format_double(stats.fraction.mean, 6) << " ± "
          << util::format_double(stats.fraction.half_width, 6)
          << " (95% normal CI, stddev "
          << util::format_double(stats.fraction.stddev, 6)
          << "), violations in " << stats.violated_replicates << "/"
          << result.replicate_count << " replicate(s)\n";
    }
  }

  out << "\nverdict:    "
      << (result.satisfied(min_satisfaction) ? "PASS" : "FAIL")
      << " (min satisfaction " << util::format_double(min_satisfaction, 6)
      << ")\n";
  return out.str();
}

}  // namespace glva::props
