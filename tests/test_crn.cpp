// Unit tests for glva_crn: network compilation, propensities, stoichiometry,
// dependency graphs, and the closed-form propensity kernels.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/circuit_repository.h"
#include "crn/network.h"
#include "sbml/model.h"
#include "sim/virtual_lab.h"
#include "util/errors.h"

namespace {

using namespace glva;
using crn::KernelKind;
using crn::ReactionNetwork;

sbml::Model birth_death() {
  sbml::Model m;
  m.id = "bd";
  m.add_compartment("cell");
  m.add_species("X", 5.0);
  m.add_parameter("kb", 2.0);
  m.add_parameter("kd", 0.1);
  m.add_reaction("birth", {}, {{"X", 1.0}}, "kb");
  m.add_reaction("death", {{"X", 1.0}}, {}, "kd * X");
  return m;
}

TEST(Network, CompilesSpeciesAndConstants) {
  const auto net = ReactionNetwork::compile(birth_death());
  EXPECT_EQ(net.species_count(), 1u);
  EXPECT_EQ(net.reaction_count(), 2u);
  EXPECT_EQ(net.species_index("X"), 0u);
  EXPECT_THROW((void)net.species_index("Y"), InvalidArgument);

  const auto values = net.initial_values();
  ASSERT_GE(values.size(), 3u);  // X + kb + kd (+ compartment)
  EXPECT_DOUBLE_EQ(values[0], 5.0);
}

TEST(Network, PropensitiesEvaluateKineticLaws) {
  const auto net = ReactionNetwork::compile(birth_death());
  auto values = net.initial_values();
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 2.0);        // kb
  EXPECT_DOUBLE_EQ(net.propensity(1, values), 0.1 * 5.0);  // kd * X
}

TEST(Network, FireAppliesStoichiometry) {
  const auto net = ReactionNetwork::compile(birth_death());
  auto values = net.initial_values();
  net.fire(0, values);
  EXPECT_DOUBLE_EQ(values[0], 6.0);
  net.fire(1, values);
  EXPECT_DOUBLE_EQ(values[0], 5.0);
}

TEST(Network, RequirementsGateApplicability) {
  const auto net = ReactionNetwork::compile(birth_death());
  auto values = net.initial_values();
  values[0] = 0.0;
  // Death requires one X even though its law (kd * X = 0 anyway) is benign;
  // requirements make that a hard guarantee.
  EXPECT_DOUBLE_EQ(net.propensity(1, values), 0.0);
}

TEST(Network, CatalystOnlyReactantsStillRequired) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("E", 0.0);
  m.add_species("P", 0.0);
  m.add_parameter("k", 3.0);
  // E -> E + P: enzyme preserved, constant law. Without E present the
  // reaction must not fire.
  m.add_reaction("cat", {{"E", 1.0}}, {{"E", 1.0}, {"P", 1.0}}, "k");
  const auto net = ReactionNetwork::compile(m);
  auto values = net.initial_values();
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 0.0);
  values[net.species_index("E")] = 1.0;
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 3.0);
  net.fire(0, values);
  EXPECT_DOUBLE_EQ(values[net.species_index("E")], 1.0);  // net zero on E
  EXPECT_DOUBLE_EQ(values[net.species_index("P")], 1.0);
}

TEST(Network, BoundarySpeciesAreNotMutatedByReactions) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("In", 15.0, /*boundary=*/true);
  m.add_species("Out", 0.0);
  m.add_parameter("k", 1.0);
  // A reaction that formally consumes In: SBML boundary semantics say the
  // species amount is not updated by reactions.
  m.add_reaction("use", {{"In", 1.0}}, {{"Out", 1.0}}, "k * In");
  const auto net = ReactionNetwork::compile(m);
  auto values = net.initial_values();
  net.fire(0, values);
  EXPECT_DOUBLE_EQ(values[net.species_index("In")], 15.0);
  EXPECT_DOUBLE_EQ(values[net.species_index("Out")], 1.0);
  EXPECT_TRUE(net.is_boundary(net.species_index("In")));
  EXPECT_FALSE(net.is_boundary(net.species_index("Out")));
}

TEST(Network, NegativePropensityThrows) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 1.0);
  m.add_parameter("k", -1.0);
  m.add_reaction("bad", {}, {{"X", 1.0}}, "k");
  const auto net = ReactionNetwork::compile(m);
  const auto values = net.initial_values();
  EXPECT_THROW((void)net.propensity(0, values), SimulationError);
}

TEST(Network, DependencyGraphLinksWritersToReaders) {
  const auto net = ReactionNetwork::compile(birth_death());
  // birth changes X; death's law reads X -> birth affects death. birth's
  // law is constant -> birth does not affect itself.
  const auto& affected_by_birth = net.affected_reactions(0);
  EXPECT_EQ(affected_by_birth, (std::vector<std::size_t>{1}));
  // death changes X; death reads X -> self-affecting.
  const auto& affected_by_death = net.affected_reactions(1);
  EXPECT_EQ(affected_by_death, (std::vector<std::size_t>{1}));
}

TEST(Network, ModifierDependenciesCountAsReads) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("R", 0.0);
  m.add_species("P", 0.0);
  m.add_parameter("b", 1.0);
  m.add_reaction("makeR", {}, {{"R", 1.0}}, "b");
  m.add_reaction("makeP", {}, {{"P", 1.0}}, "b * (1 - hill(R, 8, 2))",
                 {sbml::ModifierReference{"R"}});
  const auto net = ReactionNetwork::compile(m);
  const auto& affected = net.affected_reactions(0);  // makeR changes R
  EXPECT_EQ(affected, (std::vector<std::size_t>{1}));
  EXPECT_EQ(net.reactions_reading(net.species_index("R")),
            (std::vector<std::size_t>{1}));
}

TEST(Network, LocalParametersGetPrivateSlots) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 0.0);
  sbml::Reaction& r1 = m.add_reaction("r1", {}, {{"X", 1.0}}, "rate");
  r1.kinetic_law.local_parameters.push_back({"rate", 2.0, true});
  sbml::Reaction& r2 = m.add_reaction("r2", {}, {{"X", 1.0}}, "rate");
  r2.kinetic_law.local_parameters.push_back({"rate", 5.0, true});
  const auto net = ReactionNetwork::compile(m);
  const auto values = net.initial_values();
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 2.0);
  EXPECT_DOUBLE_EQ(net.propensity(1, values), 5.0);
}

TEST(Network, DuplicateSpeciesReferencesFold) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 10.0);
  m.add_parameter("k", 1.0);
  // X listed twice as reactant: requires 2, removes 2.
  m.add_reaction("dimerize", {{"X", 1.0}, {"X", 1.0}}, {}, "k * X * (X - 1)");
  const auto net = ReactionNetwork::compile(m);
  auto values = net.initial_values();
  net.fire(0, values);
  EXPECT_DOUBLE_EQ(values[0], 8.0);
  values[0] = 1.0;
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 0.0);  // needs two molecules
}

TEST(Network, CompileRejectsInvalidModels) {
  sbml::Model m;  // no compartment
  EXPECT_THROW((void)ReactionNetwork::compile(m), ValidationError);
}

TEST(Network, FractionalInitialAmountsRound) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 2.6);
  m.add_parameter("k", 1.0);
  m.add_reaction("r", {}, {{"X", 1.0}}, "k");
  const auto net = ReactionNetwork::compile(m);
  EXPECT_DOUBLE_EQ(net.initial_values()[0], 3.0);
}

// ------------------------------------------------------ propensity kernels

/// One catalog circuit's lab (inputs declared, so the network is the one the
/// simulator runs) and its name for failure messages.
struct CatalogCase {
  std::string label;
  sim::VirtualLab lab;
};

std::vector<CatalogCase> catalog_cases() {
  std::vector<CatalogCase> cases;
  for (const bool two_stage : {false, true}) {
    for (const auto& name : circuits::CircuitRepository::names()) {
      auto spec = circuits::CircuitRepository::build(name, two_stage);
      sim::VirtualLab lab(std::move(spec.model));
      lab.declare_inputs(spec.input_ids);
      cases.push_back(
          {name + (two_stage ? " (two-stage)" : " (single-stage)"),
           std::move(lab)});
    }
  }
  return cases;
}

/// `count` value vectors spread evenly over a seeded combination sweep of
/// `lab` (inputs at 15 molecules), constant slots included.
std::vector<std::vector<double>> realization_states(sim::VirtualLab& lab,
                                                    double total_time,
                                                    std::size_t count) {
  const auto sweep = lab.run_combination_sweep(total_time, 15.0);
  const auto& net = lab.network();
  const std::size_t samples = sweep.trace.sample_count();
  std::vector<std::vector<double>> states;
  for (std::size_t k = 0; k < count; ++k) {
    auto values = net.initial_values();
    const std::size_t row = k * (samples - 1) / (count - 1);
    for (std::size_t s = 0; s < net.species_count(); ++s) {
      values[s] = sweep.trace.series(s)[row];
    }
    states.push_back(std::move(values));
  }
  return states;
}

/// States at the table's edges: everything 0 (X = 0), then each species
/// alone and all species together at 1023, 1024 and 1031 (the last table
/// entry, the first X past it, one further out) and at 15.5 (a non-integer
/// X, as from an input clamped at 15.5).
std::vector<std::vector<double>> edge_states(const ReactionNetwork& net) {
  std::vector<std::vector<double>> states;
  auto zero = net.initial_values();
  for (std::size_t s = 0; s < net.species_count(); ++s) zero[s] = 0.0;
  states.push_back(zero);
  for (const double level : {1023.0, 1024.0, 1031.0, 15.5}) {
    auto all = zero;
    for (std::size_t s = 0; s < net.species_count(); ++s) {
      auto one = zero;
      one[s] = level;
      states.push_back(std::move(one));
      all[s] = level;
    }
    states.push_back(std::move(all));
  }
  return states;
}

bool requirements_met(const crn::CompiledReaction& reaction,
                      const std::vector<double>& values) {
  for (const auto& req : reaction.requirements) {
    if (values[req.species] < req.delta) return false;
  }
  return true;
}

/// Number of (state, reaction) pairs where propensity() differs in any bit
/// from the stack VM's evaluation of the same law (0 where requirements are
/// unmet); `first` describes the first one.
std::size_t kernel_vm_mismatches(
    const ReactionNetwork& net,
    const std::vector<std::vector<double>>& states, std::string& first) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (std::size_t r = 0; r < net.reaction_count(); ++r) {
      const auto& reaction = net.reaction(r);
      const double want = requirements_met(reaction, states[i])
                              ? reaction.propensity.evaluate(states[i])
                              : 0.0;
      const double got = net.propensity(r, states[i]);
      if (std::bit_cast<std::uint64_t>(got) ==
          std::bit_cast<std::uint64_t>(want)) {
        continue;
      }
      if (mismatches++ == 0) {
        std::ostringstream out;
        out << reaction.id << " at state " << i << ": " << std::hexfloat
            << got << " vs VM " << want;
        first = out.str();
      }
    }
  }
  return mismatches;
}

TEST(Kernels, EveryCatalogReactionAvoidsTheVm) {
  for (auto& c : catalog_cases()) {
    const auto& net = c.lab.network();
    for (std::size_t r = 0; r < net.reaction_count(); ++r) {
      EXPECT_NE(net.reaction(r).kernel.kind(), KernelKind::kVm)
          << c.label << " " << net.reaction(r).id;
    }
  }
}

TEST(Kernels, CatalogPropensitiesAreBitIdenticalToTheVm) {
  for (auto& c : catalog_cases()) {
    // 0x0B is the paper's verification subject: sample a longer run of it.
    const bool deep = c.label.rfind("0x0B ", 0) == 0;
    auto states = realization_states(c.lab, deep ? 1e5 : 1e4, 1001);
    const auto edges = edge_states(c.lab.network());
    states.insert(states.end(), edges.begin(), edges.end());
    std::string first;
    EXPECT_EQ(kernel_vm_mismatches(c.lab.network(), states, first), 0u)
        << c.label << ": " << first;
  }
}

TEST(Kernels, HillWithZeroKIsBitIdenticalToTheVm) {
  // K = 0 puts hill(0, 0, n) on its 0/0 boundary, defined as 0.
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("R", 0.0);
  m.add_species("P", 0.0);
  m.add_parameter("ymax", 1.2);
  m.add_parameter("ymin", 0.016);
  m.add_parameter("K", 0.0);
  m.add_parameter("n", 2.5);
  m.add_reaction("prod", {}, {{"P", 1.0}},
                 "ymin + (ymax - ymin) * (1 - hill(R, K, n))",
                 {sbml::ModifierReference{"R"}});
  const auto net = ReactionNetwork::compile(m);
  ASSERT_EQ(net.reaction(0).kernel.kind(), KernelKind::kHillSum);
  auto states = edge_states(net);
  auto values = net.initial_values();
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 1.2);  // X = 0: hill = 0
  for (const double x : {1.0, 3.0, 0.5, 2000.0}) {
    values[net.species_index("R")] = x;
    states.push_back(values);
  }
  std::string first;
  EXPECT_EQ(kernel_vm_mismatches(net, states, first), 0u) << first;
}

TEST(Kernels, OtherLawsFallBackToTheVm) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 3.0);
  m.add_parameter("k", 0.5);
  m.add_reaction("grow", {}, {{"X", 1.0}}, "exp(k * X)");
  m.add_reaction("decay", {{"X", 1.0}}, {}, "k * X");
  const auto net = ReactionNetwork::compile(m);
  EXPECT_EQ(net.reaction(0).kernel.kind(), KernelKind::kVm);
  EXPECT_EQ(net.reaction(1).kernel.kind(), KernelKind::kMassAction);
  const auto values = net.initial_values();
  EXPECT_EQ(net.propensity(0, values), std::exp(0.5 * 3.0));
  EXPECT_EQ(net.propensity(1, values), 0.5 * 3.0);
}

TEST(Kernels, ConstantsAreReadFromTheCompiledNetwork) {
  const auto net = ReactionNetwork::compile(birth_death());
  auto values = net.initial_values();
  for (std::size_t slot = net.species_count(); slot < values.size(); ++slot) {
    values[slot] = -1.0;  // constant slots are not part of the state
  }
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 2.0);
  EXPECT_DOUBLE_EQ(net.propensity(1, values), 0.1 * 5.0);
}

/// A single Hill response with a negative floor: the response dips below
/// zero once R represses it, on the table path (whole R) and off it.
sbml::Model negative_floor_model() {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("R", 0.0);
  m.add_species("S", 1.0);
  m.add_parameter("ymax", 1.0);
  m.add_parameter("ymin", -0.5);
  m.add_parameter("K", 5.0);
  m.add_parameter("n", 2.0);
  // Consumes S, so the reaction needs one S before its law is evaluated.
  m.add_reaction("use", {{"S", 1.0}}, {},
                 "ymin + (ymax - ymin) * (1 - hill(R, K, n))",
                 {sbml::ModifierReference{"R"}});
  return m;
}

TEST(Kernels, NegativeHillResponseThrows) {
  const auto net = ReactionNetwork::compile(negative_floor_model());
  ASSERT_EQ(net.reaction(0).kernel.kind(), KernelKind::kHillSum);
  auto values = net.initial_values();
  EXPECT_GT(net.propensity(0, values), 0.0);  // R = 0: unrepressed
  for (const double r : {40.0, 40.5, 5000.0}) {
    values[net.species_index("R")] = r;
    EXPECT_THROW((void)net.propensity(0, values), SimulationError) << r;
  }
}

TEST(Kernels, NegativeMassActionRateThrows) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 3.0);
  m.add_parameter("k", -0.5);
  m.add_reaction("bad", {}, {{"X", 1.0}}, "k * X");
  const auto net = ReactionNetwork::compile(m);
  ASSERT_EQ(net.reaction(0).kernel.kind(), KernelKind::kMassAction);
  EXPECT_THROW((void)net.propensity(0, net.initial_values()), SimulationError);
}

TEST(Kernels, UnmetRequirementReturnsZeroBeforeTheKernel) {
  const auto net = ReactionNetwork::compile(negative_floor_model());
  auto values = net.initial_values();
  values[net.species_index("R")] = 40.0;  // the law alone would throw
  values[net.species_index("S")] = 0.0;
  EXPECT_EQ(net.propensity(0, values), 0.0);
}

TEST(Kernels, OneNetworkEvaluatesFromTwoThreads) {
  auto spec = circuits::CircuitRepository::build("0x0B");
  // One law off the kernel shapes, so the VM fallback runs concurrently too.
  spec.model.add_reaction("probe", {}, {{"GFP", 1.0}}, "exp(0.001 * GFP)");
  sim::VirtualLab lab(std::move(spec.model));
  lab.declare_inputs(spec.input_ids);
  const auto& net = lab.network();
  const auto states = realization_states(lab, 1e4, 201);

  std::vector<double> expected;
  for (const auto& state : states) {
    for (std::size_t r = 0; r < net.reaction_count(); ++r) {
      expected.push_back(net.propensity(r, state));
    }
  }
  std::size_t mismatches[2] = {0, 0};
  const auto evaluate_all = [&](std::size_t& out) {
    for (int pass = 0; pass < 20; ++pass) {
      std::size_t i = 0;
      for (const auto& state : states) {
        for (std::size_t r = 0; r < net.reaction_count(); ++r) {
          if (std::bit_cast<std::uint64_t>(net.propensity(r, state)) !=
              std::bit_cast<std::uint64_t>(expected[i++])) {
            ++out;
          }
        }
      }
    }
  };
  std::thread a(evaluate_all, std::ref(mismatches[0]));
  std::thread b(evaluate_all, std::ref(mismatches[1]));
  a.join();
  b.join();
  EXPECT_EQ(mismatches[0], 0u);
  EXPECT_EQ(mismatches[1], 0u);
}

}  // namespace
