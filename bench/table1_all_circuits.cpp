// The paper's 15-circuit study (Section III, in-text): "The proposed
// algorithm is tested on the SBML models of 15 genetic circuits. This set
// includes 1 to 3-inputs genetic logic circuits, which are composed of 1-7
// genetic logic gates containing 3-26 genetic components."
//
// For every catalog circuit this harness runs the paper's experiment
// (10,000 time units, threshold 15 molecules, inputs at the threshold,
// FOV_UD = 0.25) and reports: structure (inputs/gates/components),
// extracted expression, percentage fitness, verification vs the intended
// function, and wall-clock timings.
//
// Shape target: the two-filter extractor recovers the intended function on
// all 15 circuits with PFoBE near 100%.

#include <iostream>

#include "circuits/circuit_repository.h"
#include "core/experiment.h"
#include "core/report.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/text_table.h"

int main(int argc, char** argv) {
  using namespace glva;

  util::CliParser cli;
  cli.add_option("total-time", "10000", "sweep duration (time units)");
  cli.add_option("threshold", "15", "ThVAL (molecules); inputs applied at it");
  cli.add_option("fov-ud", "0.25", "FOV_UD acceptable variation fraction");
  cli.add_option("seed", "1", "simulation seed");
  cli.add_option("csv", "", "optional path for CSV output");
  cli.add_option("jobs", "0",
                 "worker threads (0 = one per hardware thread); results are "
                 "identical for every value");
  cli.add_flag("two-stage", "expand gates to transcription+translation");
  cli.add_flag("no-timings",
               "omit the wall-clock columns (deterministic output for the "
               "golden regression)");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help("table1_all_circuits");
    return 0;
  }
  const bool timings = !cli.get_flag("no-timings");

  core::ExperimentConfig config;
  config.total_time = cli.get_double("total-time");
  config.threshold = cli.get_double("threshold");
  config.fov_ud = cli.get_double("fov-ud");
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::cout << "=== 15-circuit study (paper Section III) ===\n"
            << "total_time " << config.total_time << ", ThVAL "
            << config.threshold << ", FOV_UD " << config.fov_ud
            << ", SSA direct\n\n";

  std::vector<std::string> headers = {"circuit", "in",      "gates",
                                      "parts",   "expression", "PFoBE %",
                                      "verify"};
  if (timings) {
    headers.push_back("sim s");
    headers.push_back("analyze s");
  }
  util::TextTable table(headers);
  table.set_align(1, util::TextTable::Align::kRight);
  table.set_align(2, util::TextTable::Align::kRight);
  table.set_align(3, util::TextTable::Align::kRight);
  table.set_align(5, util::TextTable::Align::kRight);
  if (timings) {
    table.set_align(7, util::TextTable::Align::kRight);
    table.set_align(8, util::TextTable::Align::kRight);
  }

  util::CsvWriter csv;
  std::vector<std::string> csv_header = {"circuit", "inputs",  "gates",
                                         "parts",   "expression", "pfobe",
                                         "matches", "wrong_states"};
  if (timings) {
    csv_header.push_back("sim_seconds");
    csv_header.push_back("analyze_seconds");
  }
  csv.add_row(csv_header);

  std::size_t matched = 0;
  const auto specs =
      circuits::CircuitRepository::build_all(cli.get_flag("two-stage"));
  const long long jobs = cli.get_int("jobs");
  if (jobs < 0) {
    std::cerr << "table1_all_circuits: --jobs must be >= 0\n";
    return 2;
  }
  // One exec/ job per circuit, fanned out across --jobs workers; rows are
  // folded out of the ordered commit stream in catalog order whatever
  // finishes first, and each ExperimentResult is released as soon as its
  // table/CSV rows are formatted — the fleet is never materialized.
  core::run_batch(
      specs, config,
      glva::exec::ParallelRunner(static_cast<std::size_t>(jobs)),
      [&](std::size_t i, core::ExperimentResult&& result) {
        const auto& spec = specs[i];
        const bool ok = result.verification.matches;
        matched += ok ? 1 : 0;
        std::vector<std::string> row = {
            spec.name, std::to_string(spec.input_ids.size()),
            std::to_string(spec.gate_count), std::to_string(spec.parts.total()),
            result.extraction.expression(),
            util::format_double(result.extraction.fitness(), 5),
            core::summarize(result.verification, spec.expected)};
        if (timings) {
          row.push_back(util::format_double(result.simulate_seconds, 3));
          row.push_back(util::format_double(result.analyze_seconds, 3));
        }
        table.add_row(row);
        std::vector<std::string> csv_row = {
            spec.name,
            std::to_string(spec.input_ids.size()),
            std::to_string(spec.gate_count),
            std::to_string(spec.parts.total()),
            result.extraction.expression(),
            util::format_double(result.extraction.fitness()),
            ok ? "1" : "0",
            std::to_string(result.verification.wrong_state_count())};
        if (timings) {
          csv_row.push_back(util::format_double(result.simulate_seconds));
          csv_row.push_back(util::format_double(result.analyze_seconds));
        }
        csv.add_row(csv_row);
      });

  std::cout << table.str() << "\n"
            << matched << "/" << specs.size()
            << " circuits recover their intended logic\n";
  if (const std::string path = cli.get("csv"); !path.empty()) {
    csv.save(path);
    std::cout << "CSV written to " << path << "\n";
  }
  return matched == specs.size() ? 0 : 1;
}
