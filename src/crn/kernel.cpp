#include "crn/kernel.h"

#include <algorithm>
#include <optional>

namespace glva::crn {

namespace {

using math::BinaryOp;
using math::Expr;

bool is_binary(const Expr& e, BinaryOp op) {
  return e.kind() == Expr::Kind::kBinary && e.op() == op;
}

const Expr& lhs(const Expr& e) { return *e.children()[0]; }
const Expr& rhs(const Expr& e) { return *e.children()[1]; }

bool is_constant(const Expr& e) { return e.symbols().empty(); }

/// A symbol-free subtree's value, computed by the VM itself.
double fold(const Expr& e) {
  const auto no_symbols = [](const std::string&) -> std::size_t { return 0; };
  return math::CompiledExpr(e, no_symbols).evaluate({});
}

/// `s1 + s2 + ...` (left-associative) over species symbols.
bool match_fanin(const Expr& e, const Kernel::SpeciesIndex& species,
                 std::vector<std::size_t>& out) {
  const Expr* last = &e;
  if (is_binary(e, BinaryOp::kAdd)) {
    if (!match_fanin(lhs(e), species, out)) return false;
    last = &rhs(e);
  }
  if (last->kind() != Expr::Kind::kSymbol) return false;
  out.push_back(species(last->name()));
  return true;
}

/// `span * (one - hill(X, K, n))` with constant span, one, K and n.
std::optional<HillTerm> match_response(const Expr& e, double ymin,
                                       const Kernel::SpeciesIndex& species) {
  if (!is_binary(e, BinaryOp::kMul) || !is_constant(lhs(e))) return {};
  const Expr& repression = rhs(e);
  if (!is_binary(repression, BinaryOp::kSub) ||
      !is_constant(lhs(repression))) {
    return {};
  }
  const Expr& hill = rhs(repression);
  if (hill.kind() != Expr::Kind::kCall ||
      hill.function() != math::Function::kHill) {
    return {};
  }
  const auto& args = hill.children();
  std::vector<std::size_t> fanin;
  if (!match_fanin(*args[0], species, fanin) || !is_constant(*args[1]) ||
      !is_constant(*args[2])) {
    return {};
  }
  return HillTerm(std::move(fanin), ymin, fold(lhs(e)), fold(lhs(repression)),
                  fold(*args[1]), fold(*args[2]));
}

/// Left-associative `ymin_1 + response_1 + ymin_2 + response_2 + ...`.
std::vector<HillTerm> match_hill_sum(const Expr& e,
                                     const Kernel::SpeciesIndex& species) {
  std::vector<const Expr*> addends;
  const Expr* node = &e;
  for (; is_binary(*node, BinaryOp::kAdd); node = &lhs(*node)) {
    addends.push_back(&rhs(*node));
  }
  addends.push_back(node);
  std::reverse(addends.begin(), addends.end());
  if (addends.size() % 2 != 0) return {};

  std::vector<HillTerm> terms;
  for (std::size_t i = 0; i < addends.size(); i += 2) {
    if (!is_constant(*addends[i])) return {};
    auto term = match_response(*addends[i + 1], fold(*addends[i]), species);
    if (!term) return {};
    terms.push_back(std::move(*term));
  }
  return terms;
}

}  // namespace

HillTerm::HillTerm(std::vector<std::size_t> fanin, double ymin, double span,
                   double one, double k, double n)
    : fanin_(std::move(fanin)),
      ymin_(ymin),
      span_(span),
      one_(one),
      n_(n),
      kn_(std::pow(k, n)),
      table_(kTableSize) {
  for (std::size_t x = 0; x < kTableSize; ++x) {
    table_[x] = compute(static_cast<double>(x));
  }
}

Kernel Kernel::match(const math::Expr& law, const SpeciesIndex& species) {
  Kernel kernel;
  const Expr* sum = &law;
  if (is_binary(law, BinaryOp::kMul) && is_constant(lhs(law))) {
    kernel.scale_ = fold(lhs(law));
    if (rhs(law).kind() == Expr::Kind::kSymbol) {
      kernel.kind_ = KernelKind::kMassAction;
      kernel.species_ = species(rhs(law).name());
      return kernel;
    }
    sum = &rhs(law);
  }
  kernel.terms_ = match_hill_sum(*sum, species);
  if (!kernel.terms_.empty()) kernel.kind_ = KernelKind::kHillSum;
  return kernel;
}

}  // namespace glva::crn
