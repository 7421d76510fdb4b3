// Unit tests for glva_sim: RNG, traces, schedules, the direct-method SSA
// (statistical correctness against analytic results), agreement with the
// RK4 ODE test oracle, and the virtual lab.

#include <gtest/gtest.h>

#include <cmath>

#include "crn/network.h"
#include "ode_reference.h"
#include "sbml/model.h"
#include "sim/input_schedule.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "sim/virtual_lab.h"
#include "util/errors.h"
#include "util/stats.h"

namespace {

using namespace glva;
using namespace glva::sim;

// -------------------------------------------------------------------- RNG

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  util::RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, ExponentialHasCorrectMoments) {
  Rng rng(11);
  util::RunningStats stats;
  const double rate = 4.0;
  for (int i = 0; i < 40000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.01);
  EXPECT_NEAR(stats.stddev(), 1.0 / rate, 0.01);
}

TEST(Rng, NormalHasCorrectMoments) {
  Rng rng(13);
  util::RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0, 0.05);
}

TEST(Rng, BelowIsBoundedAndRoughlyUniform) {
  Rng rng(19);
  std::vector<std::size_t> counts(5, 0);
  for (int i = 0; i < 50000; ++i) {
    const auto v = rng.below(5);
    ASSERT_LT(v, 5u);
    ++counts[v];
  }
  for (const auto count : counts) {
    EXPECT_NEAR(static_cast<double>(count), 10000.0, 450.0);
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, SplitGivesIndependentStreams) {
  Rng a(5);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ------------------------------------------------------------------ trace

TEST(Trace, AppendsAndLooksUpSeries) {
  Trace trace({"A", "B"});
  trace.append(0.0, {1.0, 2.0});
  trace.append(1.0, {3.0, 4.0});
  EXPECT_EQ(trace.sample_count(), 2u);
  EXPECT_EQ(trace.series("B")[1], 4.0);
  EXPECT_EQ(trace.species_index("A"), 0u);
  EXPECT_THROW((void)trace.series("C"), InvalidArgument);
  EXPECT_THROW((void)trace.series(5), InvalidArgument);
}

TEST(Trace, AppendRejectsNarrowRows) {
  Trace trace({"A", "B"});
  EXPECT_THROW(trace.append(0.0, {1.0}), InvalidArgument);
}

TEST(Trace, ExtendRequiresMatchingSpeciesAndOrderedTime) {
  Trace head({"A"});
  head.append(0.0, {1.0});
  Trace tail({"A"});
  tail.append(1.0, {2.0});
  head.extend(tail);
  EXPECT_EQ(head.sample_count(), 2u);

  Trace wrong({"B"});
  EXPECT_THROW(head.extend(wrong), InvalidArgument);
  Trace backwards({"A"});
  backwards.append(0.5, {0.0});
  EXPECT_THROW(head.extend(backwards), InvalidArgument);
}

TEST(Trace, CsvHasHeaderAndRows) {
  Trace trace({"X"});
  trace.append(0.0, {7.0});
  EXPECT_EQ(trace.to_csv(), "time,X\n0,7\n");
}

// --------------------------------------------------------------- schedule

TEST(InputSchedule, CombinationSweepCoversAllCombosMsbFirst) {
  const auto schedule =
      InputSchedule::combination_sweep({"A", "B"}, 1000.0, 15.0);
  ASSERT_EQ(schedule.phases().size(), 4u);
  EXPECT_EQ(schedule.phases()[0].levels, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(schedule.phases()[1].levels, (std::vector<double>{0.0, 15.0}));
  EXPECT_EQ(schedule.phases()[2].levels, (std::vector<double>{15.0, 0.0}));
  EXPECT_EQ(schedule.phases()[3].levels, (std::vector<double>{15.0, 15.0}));
  EXPECT_DOUBLE_EQ(schedule.phases()[2].start_time, 500.0);
}

TEST(InputSchedule, PhaseLookupPicksLatestStarted) {
  const auto schedule =
      InputSchedule::combination_sweep({"A"}, 100.0, 1.0);
  EXPECT_EQ(schedule.phase_index_at(0.0), 0u);
  EXPECT_EQ(schedule.phase_index_at(49.9), 0u);
  EXPECT_EQ(schedule.phase_index_at(50.0), 1u);
  EXPECT_EQ(schedule.phase_index_at(1e9), 1u);
  EXPECT_THROW((void)schedule.phase_index_at(-1.0), InvalidArgument);
}

TEST(InputSchedule, ValidatesPhases) {
  InputSchedule schedule(std::vector<std::string>{"A"});
  schedule.add_phase(0.0, {1.0});
  EXPECT_THROW(schedule.add_phase(0.0, {2.0}), InvalidArgument);  // not increasing
  EXPECT_THROW(schedule.add_phase(5.0, {1.0, 2.0}), InvalidArgument);  // arity
  EXPECT_THROW((void)InputSchedule::combination_sweep({}, 10.0, 1.0),
               InvalidArgument);
  EXPECT_THROW((void)InputSchedule::combination_sweep({"A"}, -1.0, 1.0),
               InvalidArgument);
}

// ------------------------------------------------------------- simulators

sbml::Model birth_death(double kb, double kd) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 0.0);
  m.add_parameter("kb", kb);
  m.add_parameter("kd", kd);
  m.add_reaction("birth", {}, {{"X", 1.0}}, "kb");
  m.add_reaction("death", {{"X", 1.0}}, {}, "kd * X");
  return m;
}

TEST(SsaDirect, BirthDeathStationaryMoments) {
  // The birth–death process has a Poisson(kb/kd) stationary distribution:
  // mean = variance = kb/kd.
  const auto net = crn::ReactionNetwork::compile(birth_death(2.0, 0.1));
  const DirectMethod simulator;
  const InputSchedule schedule;  // no inputs
  const double tolerance = 0.8;

  util::RunningStats stats;
  SimulationOptions options;
  options.sampling_period = 1.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    options.seed = seed;
    const Trace trace = simulator.run(net, schedule, 2000.0, options);
    const auto& xs = trace.series("X");
    // Discard the burn-in (mean reached by ~5 time constants = 50 tu).
    for (std::size_t k = 200; k < xs.size(); ++k) stats.add(xs[k]);
  }
  EXPECT_NEAR(stats.mean(), 20.0, tolerance) << "mean";
  EXPECT_NEAR(stats.variance(), 20.0, 8.0 * tolerance) << "variance";
}

TEST(Simulator, SeedsAreReproducibleAndDistinct) {
  const auto net = crn::ReactionNetwork::compile(birth_death(2.0, 0.1));
  const DirectMethod simulator;
  SimulationOptions options;
  options.seed = 9;
  const Trace a = simulator.run(net, {}, 100.0, options);
  const Trace b = simulator.run(net, {}, 100.0, options);
  options.seed = 10;
  const Trace c = simulator.run(net, {}, 100.0, options);
  EXPECT_EQ(a.series("X"), b.series("X"));
  EXPECT_NE(a.series("X"), c.series("X"));
}

TEST(Simulator, SamplingGridIsComplete) {
  const auto net = crn::ReactionNetwork::compile(birth_death(2.0, 0.1));
  const DirectMethod simulator;
  SimulationOptions options;
  options.sampling_period = 0.5;
  const Trace trace = simulator.run(net, {}, 100.0, options);
  EXPECT_EQ(trace.sample_count(), 201u);  // 0, 0.5, ..., 100
  for (std::size_t k = 1; k < trace.times().size(); ++k) {
    ASSERT_DOUBLE_EQ(trace.times()[k] - trace.times()[k - 1], 0.5);
  }
}

TEST(Simulator, CountsStayNonNegative) {
  const auto net = crn::ReactionNetwork::compile(birth_death(0.5, 2.0));
  const Trace trace = DirectMethod().run(net, {}, 500.0, {});
  for (const double x : trace.series("X")) ASSERT_GE(x, 0.0);
}

TEST(Simulator, RegulatedCascadeMeetsExactExpectation) {
  // R is a birth–death process (b = 1, kd = 0.05), so it is stationary
  // Poisson(20) and never sees P. P is made at 1.2 * (1 - hill(R, 10, 2))
  // = 1.2 * 100 / (100 + R^2) and degraded at 0.02 * P, so in the
  // stationary state E[P] = (1.2 / 0.02) * E[100 / (100 + R^2)].
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("R", 0.0);
  m.add_species("P", 0.0);
  m.add_parameter("b", 1.0);
  m.add_reaction("makeR", {}, {{"R", 1.0}}, "b");
  m.add_reaction("degR", {{"R", 1.0}}, {}, "0.05 * R");
  m.add_reaction("makeP", {}, {{"P", 1.0}}, "1.2 * (1 - hill(R, 10, 2))",
                 {sbml::ModifierReference{"R"}});
  m.add_reaction("degP", {{"P", 1.0}}, {}, "0.02 * P");
  const auto net = crn::ReactionNetwork::compile(m);

  // Sum the Poisson(20) series; its mass beyond r = 200 is negligible.
  const double lambda = 20.0;
  double pmf = std::exp(-lambda);  // P(R = 0)
  double repression = 0.0;
  for (int r = 0; r < 200; ++r) {
    repression += pmf * 100.0 / (100.0 + static_cast<double>(r) * r);
    pmf *= lambda / (r + 1);
  }
  const double expected = (1.2 / 0.02) * repression;

  const DirectMethod simulator;
  util::RunningStats stats;
  SimulationOptions options;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    options.seed = seed;
    const Trace trace = simulator.run(net, {}, 1500.0, options);
    const auto& ps = trace.series("P");
    for (std::size_t k = 500; k < ps.size(); ++k) stats.add(ps[k]);
  }
  EXPECT_NEAR(stats.mean(), expected, std::max(1.0, 0.08 * expected));
}

TEST(Simulator, RejectsBadArguments) {
  const auto net = crn::ReactionNetwork::compile(birth_death(1.0, 0.1));
  const DirectMethod simulator;
  EXPECT_THROW((void)simulator.run(net, {}, 0.0, {}), InvalidArgument);
  SimulationOptions options;
  options.sampling_period = 0.0;
  EXPECT_THROW((void)simulator.run(net, {}, 10.0, options), InvalidArgument);
  // Clamping a non-boundary species is an error.
  const auto schedule = InputSchedule::constant({"X"}, {5.0});
  EXPECT_THROW((void)simulator.run(net, schedule, 10.0, {}), InvalidArgument);
}

// -------------------------------------------------------------------- ODE

TEST(Ode, ExponentialDecayMatchesClosedForm) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 100.0);
  m.add_parameter("kd", 0.05);
  m.add_reaction("decay", {{"X", 1.0}}, {}, "kd * X");
  const auto net = crn::ReactionNetwork::compile(m);
  const oracle::OdeRk4 integrator(0.01);
  const Trace trace = integrator.run(net, {}, 50.0, 1.0);
  for (std::size_t k = 0; k < trace.sample_count(); ++k) {
    const double expected = 100.0 * std::exp(-0.05 * trace.times()[k]);
    ASSERT_NEAR(trace.series("X")[k], expected, 0.01);
  }
}

TEST(Ode, SsaMeanConvergesToOde) {
  // The paper's premise: ODE = continuum limit; SSA fluctuates around it.
  const auto model = birth_death(2.0, 0.1);
  const auto net = crn::ReactionNetwork::compile(model);
  const oracle::OdeRk4 integrator(0.01);
  const Trace ode = integrator.run(net, {}, 100.0, 1.0);

  const DirectMethod ssa;
  util::RunningStats at_end;
  SimulationOptions options;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    options.seed = seed;
    const Trace trace = ssa.run(net, {}, 100.0, options);
    at_end.add(trace.series("X").back());
  }
  EXPECT_NEAR(at_end.mean(), ode.series("X").back(), 2.5);
}

// ------------------------------------------------------------ virtual lab

sbml::Model inverter_model() {
  sbml::Model m;
  m.id = "inv";
  m.add_compartment("cell");
  m.add_species("In", 0.0);
  m.add_species("Out", 0.0);
  m.add_parameter("b", 1.2);
  m.add_reaction("prod", {}, {{"Out", 1.0}}, "b * (1 - hill(In, 5, 3.5))",
                 {sbml::ModifierReference{"In"}});
  m.add_reaction("deg", {{"Out", 1.0}}, {}, "0.02 * Out");
  return m;
}

TEST(VirtualLab, DeclareInputsMarksBoundary) {
  VirtualLab lab(inverter_model());
  lab.declare_inputs({"In"});
  EXPECT_TRUE(lab.model().find_species("In")->boundary_condition);
  EXPECT_TRUE(lab.network().is_boundary(lab.network().species_index("In")));
  EXPECT_THROW(lab.declare_inputs({"Ghost"}), InvalidArgument);
}

TEST(VirtualLab, ClampedInputsFollowTheSchedule) {
  VirtualLab lab(inverter_model());
  lab.declare_inputs({"In"});
  const auto sweep = lab.run_combination_sweep(2000.0, 15.0);
  const auto& in = sweep.trace.series("In");
  const auto& times = sweep.trace.times();
  for (std::size_t k = 0; k < in.size(); ++k) {
    const double expected = times[k] < 1000.0 ? 0.0 : 15.0;
    ASSERT_DOUBLE_EQ(in[k], expected) << "t=" << times[k];
  }
}

TEST(VirtualLab, InverterRespondsToInput) {
  VirtualLab lab(inverter_model());
  lab.declare_inputs({"In"});
  const auto sweep = lab.run_combination_sweep(4000.0, 15.0);
  const auto& out = sweep.trace.series("Out");
  // Settled OFF phase (input absent): output high near plateau 60.
  util::RunningStats off_phase;
  for (std::size_t k = 1000; k < 2000; ++k) off_phase.add(out[k]);
  EXPECT_GT(off_phase.mean(), 40.0);
  // Settled ON phase: output at the leak floor.
  util::RunningStats on_phase;
  for (std::size_t k = 3000; k < 4000; ++k) on_phase.add(out[k]);
  EXPECT_LT(on_phase.mean(), 5.0);
}

TEST(VirtualLab, SweepRequiresDeclaredInputs) {
  VirtualLab lab(inverter_model());
  EXPECT_THROW((void)lab.run_combination_sweep(100.0, 15.0), InvalidArgument);
}

}  // namespace
