#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "crn/kernel.h"
#include "math/expr.h"
#include "sbml/model.h"

/// The compiled chemical-reaction-network runtime. An SBML model is
/// compiled once into index-based form (species indices, stoichiometry
/// deltas, propensity kernels, and a reaction dependency graph); the
/// stochastic simulator then runs entirely on indices.
///
/// Each kinetic law compiles to a closed-form kernel when it has one of the
/// shapes the gate models use (mass action `c * S`, or a scaled sum of
/// repressed Hill responses; see crn/kernel.h) and to a stack-VM program
/// otherwise. Constants (global parameters, compartment sizes, local
/// parameters) are folded in at compile time: propensity() reads only the
/// species slots of `values`, never its constant slots.
namespace glva::crn {

/// One stoichiometry change applied when a reaction fires.
struct StateChange {
  std::size_t species;  ///< species index
  double delta;         ///< signed molecule-count change
};

/// A compiled reaction.
struct CompiledReaction {
  std::string id;
  /// The kinetic law as a stack-VM program with its constants bound to
  /// literals: the fallback when no kernel matches, and the reference every
  /// kernel reproduces bit for bit.
  math::CompiledExpr propensity;
  /// Net state changes on firing. Boundary-condition species are excluded
  /// at compile time per SBML semantics (they are externally clamped).
  std::vector<StateChange> changes;
  /// (species index, required count) pairs derived from reactant
  /// stoichiometry — a reaction is only applicable when every requirement
  /// holds, which keeps counts non-negative even for laws that do not
  /// vanish at zero.
  std::vector<StateChange> requirements;
  /// Species indices the propensity reads (ascending).
  std::vector<std::size_t> depends_on;
  /// The closed form propensity() evaluates; kind() == KernelKind::kVm
  /// means it runs `propensity` instead.
  Kernel kernel;
};

/// A compiled reaction network plus its initial state layout.
///
/// Value-vector layout: slots [0, species_count) hold species amounts;
/// slots beyond hold constants (global parameters, compartment sizes, and
/// mangled reaction-local parameters). Simulators mutate only the species
/// slots.
class ReactionNetwork {
public:
  /// Compile `model` (validated with sbml::validate_or_throw first).
  /// Throws glva::ValidationError on semantic problems.
  static ReactionNetwork compile(const sbml::Model& model);

  // -- species -------------------------------------------------------------

  [[nodiscard]] std::size_t species_count() const noexcept {
    return species_names_.size();
  }
  [[nodiscard]] const std::vector<std::string>& species_names() const noexcept {
    return species_names_;
  }
  /// Index of a species by id; throws glva::InvalidArgument when unknown.
  [[nodiscard]] std::size_t species_index(const std::string& id) const;
  [[nodiscard]] bool is_boundary(std::size_t species) const {
    return boundary_[species];
  }

  // -- reactions -----------------------------------------------------------

  [[nodiscard]] std::size_t reaction_count() const noexcept {
    return reactions_.size();
  }
  [[nodiscard]] const CompiledReaction& reaction(std::size_t r) const {
    return reactions_[r];
  }

  /// Reactions whose propensity may change when reaction `r` fires
  /// (including `r` itself when self-affecting). Drives the direct
  /// method's selective propensity update.
  [[nodiscard]] const std::vector<std::size_t>& affected_reactions(
      std::size_t r) const {
    return affects_[r];
  }

  /// Reactions whose propensity depends on `species` — used when the
  /// virtual lab clamps an input to a new level mid-run.
  [[nodiscard]] std::vector<std::size_t> reactions_reading(
      std::size_t species) const;

  // -- state ---------------------------------------------------------------

  /// A fresh value vector: initial species amounts (rounded to whole
  /// molecules) followed by the constant slots.
  [[nodiscard]] std::vector<double> initial_values() const;

  /// Evaluate the propensity of reaction `r` against the species slots of
  /// `values`, returning 0 when the reactant requirements are unmet (before
  /// any kernel runs). Throws glva::SimulationError on negative or NaN
  /// results.
  [[nodiscard]] double propensity(std::size_t r,
                                  const std::vector<double>& values) const;

  /// Apply reaction `r`'s stoichiometry to `values`.
  void fire(std::size_t r, std::vector<double>& values) const noexcept;

private:
  std::vector<std::string> species_names_;
  std::vector<double> initial_amounts_;
  std::vector<bool> boundary_;
  std::vector<double> constants_;  // values for slots >= species_count()
  std::vector<CompiledReaction> reactions_;
  std::vector<std::vector<std::size_t>> affects_;
};

}  // namespace glva::crn
