#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "math/expr.h"

/// Closed-form propensity kernels: the two kinetic-law shapes every catalog
/// circuit is built from, evaluated without the stack VM and bit for bit
/// like it (same floating-point operations in the same order).
namespace glva::crn {

/// The form a reaction's propensity compiled to.
enum class KernelKind {
  kMassAction,  ///< c * S
  kHillSum,     ///< [c *] sum of (ymin + (ymax - ymin) * (1 - hill(X, K, n)))
  kVm,          ///< any other law: the math::CompiledExpr stack VM
};

/// One repressed Hill response ymin + span * (one - hill(X, K, n)), where
/// X is the left-to-right sum of the fan-in species. `span` (ymax - ymin)
/// and pow(K, n) are folded at compile time; the response part
/// span * (one - hill(X, K, n)) is tabulated at whole-molecule X.
class HillTerm {
public:
  static constexpr std::size_t kTableSize = 1024;

  HillTerm(std::vector<std::size_t> fanin, double ymin, double span,
           double one, double k, double n);

  [[nodiscard]] double ymin() const noexcept { return ymin_; }

  /// span * (one - hill(X, K, n)) at the X read from `values`: a table
  /// load when X is a whole number in [0, kTableSize), else computed.
  [[nodiscard]] double response(const std::vector<double>& values) const {
    double x = values[fanin_[0]];
    for (std::size_t i = 1; i < fanin_.size(); ++i) x += values[fanin_[i]];
    // +0.0 <= x < kTableSize compared as bit patterns: -0.0, negatives and
    // NaN all fail, so the table only ever stands in for exactly its X.
    if (std::bit_cast<std::uint64_t>(x) < kTableLimit) {
      const auto i = static_cast<std::size_t>(x);
      if (static_cast<double>(i) == x) return table_[i];
    }
    return compute(x);
  }

private:
  static constexpr std::uint64_t kTableLimit =
      std::bit_cast<std::uint64_t>(static_cast<double>(kTableSize));

  /// The VM's operation sequence, with pow(K, n) hoisted. Fills the table.
  [[nodiscard]] double compute(double x) const noexcept {
    return span_ * (one_ - math::hill_from_powers(std::pow(x, n_), kn_));
  }

  std::vector<std::size_t> fanin_;
  double ymin_;
  double span_;
  double one_;
  double n_;
  double kn_;
  std::vector<double> table_;  // compute(X) at X = 0, 1, ..., kTableSize-1
};

/// A reaction's compiled propensity kernel. Immutable after match(), so a
/// network holding it stays safe to share across threads.
class Kernel {
public:
  /// Species id -> value-vector slot.
  using SpeciesIndex = std::function<std::size_t(const std::string&)>;

  /// The kernel for `law`, whose constant symbols are already bound to
  /// literals (every remaining symbol names a species); kVm when `law` is
  /// not one of the closed forms.
  static Kernel match(const math::Expr& law, const SpeciesIndex& species);

  [[nodiscard]] KernelKind kind() const noexcept { return kind_; }

  /// The propensity; only valid for kMassAction and kHillSum.
  [[nodiscard]] double evaluate(const std::vector<double>& values) const {
    if (kind_ == KernelKind::kMassAction) return scale_ * values[species_];
    double sum = terms_[0].ymin() + terms_[0].response(values);
    for (std::size_t i = 1; i < terms_.size(); ++i) {
      sum = (sum + terms_[i].ymin()) + terms_[i].response(values);
    }
    return scale_ * sum;  // scale 1 is exact, so an unscaled sum is unchanged
  }

private:
  KernelKind kind_ = KernelKind::kVm;
  double scale_ = 1.0;
  std::size_t species_ = 0;     // kMassAction
  std::vector<HillTerm> terms_;  // kHillSum
};

}  // namespace glva::crn
