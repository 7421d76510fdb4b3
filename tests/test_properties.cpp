// Property-based tests: randomized invariants across module boundaries,
// driven by GLVA's own deterministic RNG so failures are reproducible.

#include <gtest/gtest.h>

#include <cmath>

#include "core/adc.h"
#include "core/bool_constructor.h"
#include "core/case_analyzer.h"
#include "core/logic_analyzer.h"
#include "core/variation_analyzer.h"
#include "crn/network.h"
#include "gates/gate_library.h"
#include "gates/netlist.h"
#include "gates/netlist_to_sbml.h"
#include "logic/quine_mccluskey.h"
#include "math/expr.h"
#include "math/expr_parser.h"
#include "math/mathml.h"
#include "sbml/validate.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace {

using namespace glva;

// ----------------------------------------------------- expression algebra --

/// Random expression trees over a fixed symbol set, avoiding domain errors
/// (no ln/sqrt of negatives: all leaves are non-negative, ops closed over
/// non-negatives except minus, which we wrap in abs).
math::ExprPtr random_expr(sim::Rng& rng, int depth) {
  using math::Expr;
  if (depth == 0 || rng.below(4) == 0) {
    if (rng.below(2) == 0) {
      return Expr::number(static_cast<double>(rng.below(20)) * 0.5);
    }
    const char* names[] = {"x", "y", "z"};
    return Expr::symbol(names[rng.below(3)]);
  }
  switch (rng.below(8)) {
    case 0:
      return Expr::add(random_expr(rng, depth - 1), random_expr(rng, depth - 1));
    case 1:
      return Expr::call(math::Function::kAbs,
                        {Expr::sub(random_expr(rng, depth - 1),
                                   random_expr(rng, depth - 1))});
    case 2:
      return Expr::mul(random_expr(rng, depth - 1), random_expr(rng, depth - 1));
    case 3:
      return Expr::div(random_expr(rng, depth - 1),
                       Expr::add(Expr::number(1.0),
                                 random_expr(rng, depth - 1)));
    case 4:
      return Expr::call(math::Function::kHill,
                        {random_expr(rng, depth - 1), Expr::number(8.0),
                         Expr::number(2.0)});
    case 5:
      return Expr::call(math::Function::kMin,
                        {random_expr(rng, depth - 1),
                         random_expr(rng, depth - 1)});
    case 6:
      return Expr::call(math::Function::kMax,
                        {random_expr(rng, depth - 1),
                         random_expr(rng, depth - 1)});
    default:
      return Expr::call(math::Function::kExp,
                        {Expr::negate(random_expr(rng, depth - 1))});
  }
}

TEST(PropertyExpr, CompiledEvaluationMatchesTreeWalk) {
  sim::Rng rng(1001);
  const auto index = [](const std::string& name) -> std::size_t {
    return static_cast<std::size_t>(name[0] - 'x');
  };
  for (int trial = 0; trial < 300; ++trial) {
    const auto expr = random_expr(rng, 4);
    const std::vector<double> values{rng.uniform() * 20.0,
                                     rng.uniform() * 20.0,
                                     rng.uniform() * 20.0};
    const math::Environment env{
        {"x", values[0]}, {"y", values[1]}, {"z", values[2]}};
    const math::CompiledExpr compiled(*expr, index);
    const double walked = math::evaluate(*expr, env);
    const double fast = compiled.evaluate(values);
    ASSERT_NEAR(walked, fast, 1e-9 * (1.0 + std::fabs(walked)))
        << expr->to_string();
  }
}

TEST(PropertyExpr, PrintParseRoundTripPreservesValue) {
  sim::Rng rng(1002);
  const math::Environment env{{"x", 1.5}, {"y", 3.25}, {"z", 0.75}};
  for (int trial = 0; trial < 300; ++trial) {
    const auto expr = random_expr(rng, 4);
    const auto reparsed = math::parse_expression(expr->to_string());
    ASSERT_NEAR(math::evaluate(*expr, env), math::evaluate(*reparsed, env),
                1e-9)
        << expr->to_string();
  }
}

TEST(PropertyExpr, MathMlRoundTripPreservesValue) {
  sim::Rng rng(1003);
  const math::Environment env{{"x", 2.0}, {"y", 0.5}, {"z", 7.0}};
  for (int trial = 0; trial < 200; ++trial) {
    const auto expr = random_expr(rng, 3);
    const auto back = math::from_mathml(*math::to_mathml(*expr));
    ASSERT_NEAR(math::evaluate(*expr, env), math::evaluate(*back, env), 1e-9)
        << expr->to_string();
  }
}

// --------------------------------------------------------- minimization --

class QuineMcCluskeySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuineMcCluskeySweep, MinimizedExpressionIsEquivalent) {
  const std::size_t inputs = GetParam();
  sim::Rng rng(2000 + inputs);
  const auto names = logic::default_input_names(inputs);
  for (int trial = 0; trial < 120; ++trial) {
    logic::TruthTable table(inputs);
    for (std::size_t c = 0; c < table.row_count(); ++c) {
      table.set_output(c, rng.below(2) == 1);
    }
    const auto expr = logic::minimize(table, names);
    ASSERT_TRUE(expr.equivalent_to(table))
        << "inputs=" << inputs << " bits=" << table.to_bits();
    // Minimized form never uses more cubes than the canonical SoP.
    ASSERT_LE(expr.cubes().size(), table.minterms().size());
  }
}

TEST_P(QuineMcCluskeySweep, DontCaresNeverFlipRequiredRows) {
  const std::size_t inputs = GetParam();
  sim::Rng rng(3000 + inputs);
  const auto names = logic::default_input_names(inputs);
  for (int trial = 0; trial < 60; ++trial) {
    logic::TruthTable table(inputs);
    std::vector<std::size_t> dont_cares;
    for (std::size_t c = 0; c < table.row_count(); ++c) {
      const auto roll = rng.below(3);
      if (roll == 0) {
        table.set_output(c, true);
      } else if (roll == 2) {
        dont_cares.push_back(c);
      }
    }
    const auto expr = logic::minimize(table, names, dont_cares);
    for (std::size_t c = 0; c < table.row_count(); ++c) {
      const bool is_dc =
          std::find(dont_cares.begin(), dont_cares.end(), c) != dont_cares.end();
      if (is_dc) continue;  // free either way
      ASSERT_EQ(expr.evaluate(c), table.output(c)) << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(InputWidths, QuineMcCluskeySweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ------------------------------------------------------------------- ADC --

TEST(PropertyAdc, RaisingThresholdShrinksHighSet) {
  sim::Rng rng(4001);
  std::vector<double> analog(2000);
  for (double& x : analog) x = rng.uniform() * 60.0;
  std::size_t previous_highs = analog.size() + 1;
  for (const double threshold : {1.0, 5.0, 15.0, 30.0, 55.0}) {
    const auto bits = core::adc(analog, threshold);
    std::size_t highs = 0;
    for (const bool b : bits) highs += b ? 1 : 0;
    ASSERT_LT(highs, previous_highs + 1);
    previous_highs = highs;
  }
}

TEST(PropertyAdc, DigitizationIsIdempotentOnDigitalSignals) {
  // A signal already at {0, H} digitizes identically for any threshold in
  // (0, H].
  std::vector<double> analog;
  sim::Rng rng(4002);
  for (int k = 0; k < 500; ++k) analog.push_back(rng.below(2) ? 30.0 : 0.0);
  const auto at_10 = core::adc(analog, 10.0);
  const auto at_30 = core::adc(analog, 30.0);
  EXPECT_EQ(at_10, at_30);
}

// ---------------------------------------------------------- case analysis --

TEST(PropertyCase, CaseCountsPartitionTheSamples) {
  sim::Rng rng(5001);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.below(3);
    const std::size_t samples = 100 + rng.below(400);
    core::DigitalData data;
    data.inputs.assign(n, {});
    for (std::size_t k = 0; k < samples; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        data.inputs[i].push_back(rng.below(2) == 1);
      }
      data.output.push_back(rng.below(2) == 1);
    }
    const auto analysis = core::analyze_cases(data);
    std::size_t total = 0;
    std::size_t total_highs = 0;
    for (const auto& record : analysis.cases) {
      ASSERT_EQ(record.case_count, record.output_stream.size());
      total += record.case_count;
      for (const bool b : record.output_stream) total_highs += b ? 1 : 0;
    }
    ASSERT_EQ(total, samples);
    std::size_t direct_highs = 0;
    for (const bool b : data.output) direct_highs += b ? 1 : 0;
    ASSERT_EQ(total_highs, direct_highs);
  }
}

TEST(PropertyVariation, TransitionsBoundedByStreamLength) {
  sim::Rng rng(5002);
  for (int trial = 0; trial < 50; ++trial) {
    core::CaseAnalysis cases;
    cases.input_count = 1;
    cases.cases.resize(2);
    cases.cases[0].combination = 0;
    cases.cases[1].combination = 1;
    const std::size_t len = 1 + rng.below(200);
    for (std::size_t k = 0; k < len; ++k) {
      cases.cases[0].output_stream.push_back(rng.below(2) == 1);
    }
    cases.cases[0].case_count = len;
    const auto analysis = core::analyze_variation(cases);
    ASSERT_LE(analysis.records[0].variation_count, len - 1);
    ASSERT_LE(analysis.records[0].high_count, len);
    ASSERT_GE(analysis.records[0].fov_est, 0.0);
    ASSERT_LE(analysis.records[0].fov_est, 1.0);
  }
}

// ------------------------------------------------------------- the filters --

TEST(PropertyFilters, AcceptedSetGrowsWithFovUd) {
  // Larger FOV_UD can only admit more (never fewer) combinations.
  sim::Rng rng(6001);
  for (int trial = 0; trial < 40; ++trial) {
    core::VariationAnalysis analysis;
    analysis.input_count = 2;
    analysis.records.resize(4);
    for (std::size_t c = 0; c < 4; ++c) {
      auto& record = analysis.records[c];
      record.combination = c;
      record.case_count = 50 + rng.below(200);
      record.high_count = rng.below(record.case_count + 1);
      record.variation_count = rng.below(record.case_count);
      record.fov_est = static_cast<double>(record.variation_count) /
                       static_cast<double>(record.case_count);
    }
    std::size_t previous = 0;
    for (const double fov : {0.01, 0.1, 0.3, 0.7, 1.0}) {
      const auto result =
          core::construct_bool_expr(analysis, fov, {"A", "B"});
      const std::size_t accepted = result.extracted.minterms().size();
      ASSERT_GE(accepted, previous);
      previous = accepted;
      // PFoBE stays within [0, 100].
      ASSERT_LE(result.fitness_percent, 100.0 + 1e-12);
      ASSERT_GE(result.fitness_percent, 0.0);
    }
  }
}

TEST(PropertyFilters, PerfectlyStableDataExtractsExactly) {
  // Noise-free streams: extraction equals the generating function, PFoBE
  // is exactly 100.
  sim::Rng rng(6002);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.below(3);
    const auto combos = static_cast<std::size_t>(1) << n;
    logic::TruthTable truth(n);
    for (std::size_t c = 0; c < combos; ++c) {
      truth.set_output(c, rng.below(2) == 1);
    }
    core::DigitalData data;
    data.inputs.assign(n, {});
    for (std::size_t c = 0; c < combos; ++c) {
      for (int k = 0; k < 40; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          data.inputs[i].push_back(((c >> (n - 1 - i)) & 1U) != 0);
        }
        data.output.push_back(truth.output(c));
      }
    }
    const core::LogicAnalyzer analyzer(core::AnalyzerConfig{15.0, 0.25});
    const auto result = analyzer.analyze_digital(
        data, logic::default_input_names(n), "Y");
    ASSERT_EQ(result.extracted(), truth);
    ASSERT_DOUBLE_EQ(result.fitness(), 100.0);
  }
}

// ----------------------------------------------- netlists and simulation --

/// Random NOT/NOR netlist over 2-3 inputs and up to 5 gates.
gates::Netlist random_netlist(sim::Rng& rng) {
  const std::size_t inputs = 2 + rng.below(2);
  gates::Netlist netlist(logic::default_input_names(inputs));
  const auto& library = gates::GateLibrary::standard();
  const std::size_t gate_count = 1 + rng.below(5);
  std::vector<gates::Net> nets;
  for (std::size_t i = 0; i < inputs; ++i) nets.push_back(gates::Net::input(i));
  for (std::size_t g = 0; g < gate_count; ++g) {
    const auto& repressor = library.gates()[g].name;
    const gates::Net a = nets[rng.below(nets.size())];
    if (rng.below(2) == 0) {
      nets.push_back(netlist.add_not(repressor, a));
    } else {
      const gates::Net b = nets[rng.below(nets.size())];
      nets.push_back(netlist.add_nor(repressor, a, b));
    }
  }
  netlist.set_output(gates::Net::gate(netlist.gate_count() - 1));
  return netlist;
}

TEST(PropertyNetlist, GeneratedModelsAlwaysValidate) {
  sim::Rng rng(7001);
  for (int trial = 0; trial < 60; ++trial) {
    const auto netlist = random_netlist(rng);
    const auto model =
        gates::netlist_to_model(netlist, gates::GateLibrary::standard());
    ASSERT_TRUE(sbml::is_valid(sbml::validate(model)));
    // Compiles into a simulatable network with one protein per gate.
    const auto net = crn::ReactionNetwork::compile(model);
    ASSERT_EQ(net.species_count(),
              netlist.input_count() + netlist.gate_count());
  }
}

TEST(PropertySsa, TraceInvariantsHoldAcrossKernels) {
  sim::Rng rng(7002);
  for (int trial = 0; trial < 10; ++trial) {
    const auto netlist = random_netlist(rng);
    const auto model =
        gates::netlist_to_model(netlist, gates::GateLibrary::standard());
    const auto net = crn::ReactionNetwork::compile(model);
    const auto schedule = sim::InputSchedule::combination_sweep(
        netlist.input_names(), 200.0, 15.0);
    sim::SimulationOptions options;
    options.seed = 42 + trial;
    const auto trace = sim::DirectMethod().run(net, schedule, 200.0, options);
    ASSERT_EQ(trace.sample_count(), 201u);
    for (std::size_t k = 1; k < trace.times().size(); ++k) {
      ASSERT_GT(trace.times()[k], trace.times()[k - 1]);
    }
    for (std::size_t s = 0; s < trace.species_count(); ++s) {
      for (const double x : trace.series(s)) {
        ASSERT_GE(x, 0.0);
        ASSERT_EQ(x, std::floor(x));  // whole molecules
      }
    }
  }
}

}  // namespace
