// Unit tests for glva_timing: threshold and propagation-delay estimation.

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/circuit_repository.h"
#include "sim/trace.h"
#include "sim/virtual_lab.h"
#include "timing/delay_estimator.h"
#include "timing/threshold_estimator.h"
#include "util/errors.h"

namespace {

using namespace glva;
using namespace glva::timing;

TEST(ThresholdEstimator, SeparatesBimodalSamples) {
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(1.0 + (i % 3));
  for (int i = 0; i < 1000; ++i) samples.push_back(55.0 + (i % 7));
  const auto analysis = estimate_threshold(samples);
  EXPECT_GT(analysis.threshold, 5.0);
  EXPECT_LT(analysis.threshold, 54.0);
  EXPECT_NEAR(analysis.off_mean, 2.0, 0.5);
  EXPECT_NEAR(analysis.on_mean, 58.0, 1.5);
  EXPECT_GT(analysis.separation, 0.8);
}

TEST(ThresholdEstimator, UnimodalSignalScoresLowSeparation) {
  std::vector<double> samples(2000, 30.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] += static_cast<double>(i % 5);
  }
  const auto analysis = estimate_threshold(samples);
  EXPECT_LT(analysis.separation, 0.6);
}

TEST(ThresholdEstimator, EmptySampleThrows) {
  EXPECT_THROW((void)estimate_threshold(std::vector<double>{}),
               InvalidArgument);
}

TEST(ThresholdEstimator, LabFlowRecoversUsableThreshold) {
  const auto spec = circuits::CircuitRepository::build("myers_not");
  sim::VirtualLab lab(spec.model, sim::LabOptions{1.0, 3});
  lab.declare_inputs(spec.input_ids);
  const auto analysis = estimate_threshold(lab, "GFP", 30.0, 5000.0);
  // Inverter plateaus: floor ~0.8, plateau ~60. Any threshold between the
  // plateaus digitizes correctly; the paper uses 15.
  EXPECT_GT(analysis.threshold, 3.0);
  EXPECT_LT(analysis.threshold, 55.0);
  EXPECT_GT(analysis.separation, 0.5);
}

// Build a deterministic square-wave trace with a known lag.
sim::Trace delayed_square(double lag, double period, double total,
                          double high) {
  sim::Trace trace({"In", "Out"});
  for (double t = 0.0; t <= total; t += 1.0) {
    const bool in_high = std::fmod(t, 2.0 * period) >= period;
    const double t_shifted = t - lag;
    const bool out_high =
        t_shifted >= 0.0 && std::fmod(t_shifted, 2.0 * period) >= period;
    trace.append(t, {in_high ? high : 0.0, out_high ? high : 0.0});
  }
  return trace;
}

sim::InputSchedule square_schedule(double period, double total, double high) {
  sim::InputSchedule schedule(std::vector<std::string>{"In"});
  bool level = false;
  for (double t = 0.0; t < total; t += period) {
    schedule.add_phase(t, {level ? high : 0.0});
    level = !level;
  }
  return schedule;
}

TEST(DelayEstimator, RecoversKnownLag) {
  const double lag = 37.0;
  const auto trace = delayed_square(lag, 500.0, 4000.0, 30.0);
  const auto schedule = square_schedule(500.0, 4000.0, 30.0);
  const auto analysis = estimate_delays(trace, schedule, "Out", 15.0, 5);
  ASSERT_GE(analysis.events.size(), 4u);
  EXPECT_NEAR(analysis.mean_rise_delay, lag, 1.5);
  EXPECT_NEAR(analysis.mean_fall_delay, lag, 1.5);
  EXPECT_NEAR(analysis.max_delay, lag, 1.5);
  EXPECT_NEAR(analysis.recommended_hold_time, lag * 1.25, 2.0);
}

TEST(DelayEstimator, PersistenceIgnoresGlitches) {
  // A glitch shortly after the input change must not count as the
  // crossing; the persistent transition happens at lag = 50.
  sim::Trace trace({"In", "Out"});
  for (double t = 0.0; t <= 1000.0; t += 1.0) {
    const double in = t >= 500.0 ? 30.0 : 0.0;
    double out = t >= 550.0 ? 30.0 : 0.0;
    if (t >= 505.0 && t < 508.0) out = 30.0;  // 3-sample glitch
    trace.append(t, {in, out});
  }
  sim::InputSchedule schedule(std::vector<std::string>{"In"});
  schedule.add_phase(0.0, {0.0});
  schedule.add_phase(500.0, {30.0});
  const auto analysis = estimate_delays(trace, schedule, "Out", 15.0, 10);
  ASSERT_EQ(analysis.events.size(), 1u);
  EXPECT_NEAR(analysis.events[0].delay(), 50.0, 1.5);
  EXPECT_TRUE(analysis.events[0].rising);
}

TEST(DelayEstimator, NoTransitionsYieldsNoEvents) {
  sim::Trace trace({"In", "Out"});
  for (double t = 0.0; t <= 100.0; t += 1.0) {
    trace.append(t, {0.0, 50.0});
  }
  sim::InputSchedule schedule(std::vector<std::string>{"In"});
  schedule.add_phase(0.0, {0.0});
  schedule.add_phase(50.0, {30.0});
  const auto analysis = estimate_delays(trace, schedule, "Out", 15.0);
  EXPECT_TRUE(analysis.events.empty());
  EXPECT_DOUBLE_EQ(analysis.max_delay, 0.0);
}

TEST(DelayEstimator, ValidatesArguments) {
  sim::Trace trace({"Out"});
  sim::InputSchedule schedule(std::vector<std::string>{"In"});
  schedule.add_phase(0.0, {0.0});
  EXPECT_THROW((void)estimate_delays(trace, schedule, "Out", 15.0),
               InvalidArgument);  // empty trace
  trace.append(0.0, {1.0});
  EXPECT_THROW((void)estimate_delays(trace, schedule, "Out", -1.0),
               InvalidArgument);  // bad threshold
}

TEST(DelayEstimator, MeasuresRealCircuitDelays) {
  const auto spec = circuits::CircuitRepository::build("0x1C");
  sim::VirtualLab lab(spec.model, sim::LabOptions{1.0, 5});
  lab.declare_inputs(spec.input_ids);
  const auto sweep = lab.run_combination_sweep(10000.0, 15.0);
  const auto analysis =
      estimate_delays(sweep.trace, sweep.schedule, "GFP", 15.0);
  ASSERT_GE(analysis.events.size(), 2u);
  // Two-gate circuit: delays land well inside the paper's 1000-tu
  // assumption but are clearly nonzero.
  EXPECT_GT(analysis.max_delay, 10.0);
  EXPECT_LT(analysis.max_delay, 1000.0);
}

}  // namespace
