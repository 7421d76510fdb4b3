// Tests for the sequential/dynamic circuit extensions: the toggle switch
// (state holding) and the repressilator (oscillation), and how the paper's
// algorithm behaves when its combinational assumption breaks.

#include <gtest/gtest.h>

#include "circuits/sequential_circuits.h"
#include "core/logic_analyzer.h"
#include "sbml/validate.h"
#include "sim/virtual_lab.h"
#include "util/stats.h"

namespace {

using namespace glva;

TEST(ToggleSwitch, ModelValidates) {
  const auto model = circuits::toggle_switch_model();
  EXPECT_TRUE(sbml::is_valid(sbml::validate(model)));
  EXPECT_EQ(model.boundary_species_ids(),
            (std::vector<std::string>{"S_set", "S_reset"}));
}

TEST(ToggleSwitch, HoldsStateWithoutInputs) {
  // Latched on the U side, with no inducers the latch must stay put for a
  // long time (bistability): GFP stays high throughout.
  auto model = circuits::toggle_switch_model();
  sim::VirtualLab lab(model, sim::LabOptions{1.0, 4});
  lab.declare_inputs({"S_set", "S_reset"});
  const auto trace = lab.run_constant({0.0, 0.0}, 5000.0);
  const auto& gfp = trace.series("GFP");
  util::RunningStats tail;
  for (std::size_t k = 1000; k < gfp.size(); ++k) tail.add(gfp[k]);
  EXPECT_GT(tail.mean(), 30.0);
}

TEST(ToggleSwitch, SetPulseFlipsTheLatch) {
  auto model = circuits::toggle_switch_model();
  sim::VirtualLab lab(model, sim::LabOptions{1.0, 5});
  lab.declare_inputs({"S_set", "S_reset"});
  // Pulse S_set for 1500 tu (forces U down), then release and watch.
  sim::InputSchedule schedule(std::vector<std::string>{"S_set", "S_reset"});
  schedule.add_phase(0.0, {15.0, 0.0});
  schedule.add_phase(1500.0, {0.0, 0.0});
  const auto trace = lab.run(schedule, 5000.0);
  const auto& gfp = trace.series("GFP");
  // After release the latch must remain flipped (V side): GFP low.
  util::RunningStats tail;
  for (std::size_t k = 3000; k < gfp.size(); ++k) tail.add(gfp[k]);
  EXPECT_LT(tail.mean(), 10.0);
}

TEST(ToggleSwitch, ExtractionDependsOnSweepOrder) {
  const auto model = circuits::toggle_switch_model();
  const std::vector<std::string> inputs{"S_set", "S_reset"};
  const core::LogicAnalyzer analyzer(core::AnalyzerConfig{15.0, 0.25});

  const auto run_order = [&](const std::vector<std::size_t>& order) {
    sim::VirtualLab lab(model, sim::LabOptions{1.0, 6});
    lab.declare_inputs(inputs);
    sim::InputSchedule schedule(inputs);
    const double hold = 10000.0 / static_cast<double>(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      schedule.add_phase(static_cast<double>(k) * hold,
                         {(order[k] & 2U) ? 15.0 : 0.0,
                          (order[k] & 1U) ? 15.0 : 0.0});
    }
    const auto trace = lab.run(schedule, 10000.0);
    return analyzer.analyze(trace, inputs, "GFP").extracted();
  };

  // Ascending visits 00 while still initially latched high; visiting 00
  // right after a SET pulse (latch flipped low) reads the opposite.
  const auto ascending = run_order({0, 1, 2, 3});
  const auto after_set = run_order({2, 0, 1, 3});
  EXPECT_TRUE(ascending.output(0));   // 00 high: initial latch state
  EXPECT_FALSE(after_set.output(0));  // 00 low: remembers the SET pulse
}

TEST(Repressilator, ModelValidatesAndOscillates) {
  const auto model = circuits::repressilator_model();
  EXPECT_TRUE(sbml::is_valid(sbml::validate(model)));

  sim::VirtualLab lab(model, sim::LabOptions{1.0, 7});
  lab.declare_inputs({"dummy_in"});
  const auto trace = lab.run_constant({0.0}, 8000.0);
  const auto& gfp = trace.series("GFP");
  // Oscillation: the signal repeatedly crosses its own long-run mean.
  util::RunningStats stats;
  for (double x : gfp) stats.add(x);
  std::size_t mean_crossings = 0;
  for (std::size_t k = 1; k < gfp.size(); ++k) {
    if ((gfp[k] >= stats.mean()) != (gfp[k - 1] >= stats.mean())) {
      ++mean_crossings;
    }
  }
  EXPECT_GT(mean_crossings, 10u);
  EXPECT_GT(stats.max(), 30.0);
  EXPECT_LT(stats.min(), 5.0);
}

TEST(Repressilator, AnalyzerFlagsNonCombinationalBehaviour) {
  const auto model = circuits::repressilator_model();
  sim::VirtualLab lab(model, sim::LabOptions{1.0, 8});
  lab.declare_inputs({"dummy_in"});
  const auto sweep = lab.run_combination_sweep(10000.0, 15.0);
  const core::LogicAnalyzer analyzer(core::AnalyzerConfig{15.0, 0.25});
  const auto result = analyzer.analyze(sweep.trace, {"dummy_in"}, "GFP");

  // Either the majority filter rejects the half-duty oscillation, or the
  // stability filter marks it unstable; in both cases no stable high state
  // is extracted and variation counts are large.
  EXPECT_TRUE(result.extracted().minterms().empty());
  std::size_t total_variation = 0;
  for (const auto& record : result.variation.records) {
    total_variation += record.variation_count;
  }
  EXPECT_GT(total_variation, 40u);
}

}  // namespace
