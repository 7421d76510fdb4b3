// Logic discovery on an unknown circuit, including intermediate signals.
//
// The paper's second use case: "it helps in extracting the Boolean logic of
// a circuit even when the user does not have any prior knowledge about its
// expected behaviour", and the IS/OS selection "can perform Boolean logic
// analysis on the entire circuit as well as on the intermediate circuit
// components".
//
// This example loads the 0x17 (3-input minority) circuit as if it were a
// black box, extracts the logic of the *reporter* and of every internal
// repressor stage, and prints the per-stage expressions — effectively
// recovering the gate-level structure from simulation alone.

#include <iostream>

#include "circuits/circuit_repository.h"
#include "core/logic_analyzer.h"
#include "sim/virtual_lab.h"
#include "util/string_util.h"
#include "util/text_table.h"

int main() {
  using namespace glva;

  const auto spec = circuits::CircuitRepository::build("0x17");
  std::cout << "black-box circuit with inputs A, B, C — discovering its logic"
            << "\n\n";

  sim::VirtualLab lab(spec.model, sim::LabOptions{1.0, 7});
  lab.declare_inputs(spec.input_ids);
  // A longer sweep tightens intermediate-stage statistics: deep stages see
  // the stimulus only after several propagation delays.
  const sim::SweepResult sweep = lab.run_combination_sweep(20000.0, 15.0);

  const core::LogicAnalyzer analyzer(core::AnalyzerConfig{15.0, 0.25});

  util::TextTable table({"observed species", "extracted expression", "PFoBE %"});
  table.set_align(2, util::TextTable::Align::kRight);
  for (const auto& species : sweep.trace.species_names()) {
    // Skip the inputs themselves; analyze every internal protein + GFP.
    bool is_input = false;
    for (const auto& input : spec.input_ids) is_input |= (input == species);
    if (is_input) continue;

    const core::ExtractionResult result =
        analyzer.analyze(sweep.trace, spec.input_ids, species);
    table.add_row({species, result.expression(),
                   util::format_double(result.fitness(), 5)});
  }
  std::cout << table.str() << "\n";

  const core::ExtractionResult reporter =
      analyzer.analyze(sweep.trace, spec.input_ids, spec.output_id);
  std::cout << "reporter logic: " << spec.output_id << " = "
            << reporter.expression() << "\n"
            << "(intended: 3-input minority — A'·B' + A'·C' + B'·C')\n";
  return 0;
}
