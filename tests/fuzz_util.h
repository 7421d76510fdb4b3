#pragma once

// Shared fuzz-vs-naive machinery for the packed-analysis test suites
// (test_bitstream, test_core, test_props, test_store, test_simd_kernels):
// seeded generators for bool/word/double streams and combination planes,
// a wide-circuit fixture, the naive bit-counting references the
// word-parallel kernels are checked against, and the ragged block
// slicings the streaming tests cut their deliveries into. Header-only so
// each suite stays a single translation unit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "circuits/circuit_spec.h"
#include "gates/gate_library.h"
#include "gates/netlist.h"
#include "gates/netlist_to_sbml.h"
#include "props/property.h"
#include "sim/rng.h"

namespace glva::testutil {

// ------------------------------------------------------------- generators

/// n independent fair coin flips.
inline std::vector<bool> random_bools(std::size_t n, sim::Rng& rng) {
  std::vector<bool> bits(n);
  for (std::size_t k = 0; k < n; ++k) bits[k] = rng.below(2) == 1;
  return bits;
}

/// n uniformly random 64-bit words (dense bit patterns for word-kernel
/// fuzz; every bit is fair).
inline std::vector<std::uint64_t> random_words(std::size_t n, sim::Rng& rng) {
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t& w : words) w = rng.next_u64();
  return words;
}

/// n doubles straddling `threshold`, salted with every special value a
/// `>= threshold` comparison must classify exactly like the scalar
/// operator: NaN (compares false), ±infinity, ±0.0, the threshold itself
/// and its immediate neighbours. Roughly a third of the samples are
/// specials; the rest are normals centred on the threshold.
inline std::vector<double> special_doubles(std::size_t n, double threshold,
                                           sim::Rng& rng) {
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      threshold,
      std::nextafter(threshold, std::numeric_limits<double>::infinity()),
      std::nextafter(threshold, -std::numeric_limits<double>::infinity()),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
  };
  constexpr std::size_t kSpecialCount = sizeof(specials) / sizeof(specials[0]);
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng.below(3) == 0 ? specials[rng.below(kSpecialCount)]
                          : threshold + rng.normal() * 10.0;
  }
  return values;
}

/// A random property AST of at most `depth` operator levels over the
/// given atom names — the differential-fuzz driver for test_props. Every
/// operator kind is reachable; window bounds are drawn from 0..129 so
/// bounded windows regularly straddle 64-bit word boundaries.
inline props::PropertyPtr random_property(std::size_t depth,
                                          const std::vector<std::string>& atoms,
                                          sim::Rng& rng) {
  if (depth == 0 || rng.below(5) == 0) {
    return props::make_atom(atoms[rng.below(atoms.size())]);
  }
  const auto child = [&] { return random_property(depth - 1, atoms, rng); };
  const std::size_t bound = rng.below(130);
  switch (rng.below(11)) {
    case 0: return props::make_not(child());
    case 1: return props::make_and(child(), child());
    case 2: return props::make_or(child(), child());
    case 3: return props::make_implies(child(), child());
    case 4: return props::make_globally(child());
    case 5: return props::make_eventually(child());
    case 6: return props::make_globally_bounded(bound, child());
    case 7: return props::make_eventually_bounded(bound, child());
    case 8: return props::make_until_bounded(child(), bound, child());
    case 9: return props::make_settle(bound, child());
    default: return props::make_noglitch(bound, child());
  }
}

/// `inputs` digitized input planes (MSB first) of `samples` samples, shaped
/// like sweep data under stress: plateaus of 1..max_run samples (1 is
/// per-sample flicker), each holding a combination drawn mostly from a
/// pool of three, so combinations are regularly interrupted and later
/// resumed.
inline std::vector<std::vector<bool>> random_combination_planes(
    std::size_t inputs, std::size_t samples, std::size_t max_run,
    sim::Rng& rng) {
  const std::uint64_t combinations = std::uint64_t{1} << inputs;
  const std::uint64_t pool[] = {rng.below(combinations),
                                rng.below(combinations),
                                rng.below(combinations)};
  std::vector<std::vector<bool>> planes(inputs, std::vector<bool>(samples));
  std::size_t k = 0;
  while (k < samples) {
    const std::uint64_t combination =
        rng.below(4) == 0 ? rng.below(combinations) : pool[rng.below(3)];
    const std::size_t run = 1 + rng.below(max_run);
    for (std::size_t j = 0; j < run && k < samples; ++j, ++k) {
      for (std::size_t i = 0; i < inputs; ++i) {
        planes[i][k] = ((combination >> (inputs - 1 - i)) & 1U) != 0;
      }
    }
  }
  return planes;
}

/// Input names "I0", "I1", ... (MSB first) for `inputs` inputs.
inline std::vector<std::string> input_names(std::size_t inputs) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < inputs; ++i) {
    // Appending (rather than "I" + to_string) keeps GCC 12's -Wrestrict
    // false positive on string concatenation quiet.
    std::string name = "I";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

/// An `inputs`-input circuit wider than the catalog's: a balanced tree of
/// 2-input NOR gates (one standard-library repressor each, so 2 to 13
/// inputs) compiled to SBML, reporting on GFP.
inline circuits::CircuitSpec nor_tree_spec(std::size_t inputs) {
  static const char* const kRepressors[] = {
      "AmtR", "BetI", "BM3R1", "HlyIIR", "IcaRA", "LitR",
      "LmrA", "PhlF", "PsrA",  "QacR",   "SrpR",  "TarA"};
  const std::vector<std::string> names = input_names(inputs);
  gates::Netlist netlist(names);
  std::vector<gates::Net> level;
  for (std::size_t i = 0; i < inputs; ++i) {
    level.push_back(gates::Net::input(i));
  }
  std::size_t used = 0;
  while (level.size() > 1) {
    std::vector<gates::Net> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(
          netlist.add_nor(kRepressors[used++], level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  netlist.set_output(level.front());

  circuits::CircuitSpec spec;
  spec.name = "nor_tree";
  spec.name += std::to_string(inputs);
  spec.input_ids = names;
  spec.output_id = "GFP";
  spec.expected = netlist.ideal_truth_table();
  spec.model =
      gates::netlist_to_model(netlist, gates::GateLibrary::standard());
  return spec;
}

// ----------------------------------------------------- naive references

/// Reference popcount over the unpacked representation.
inline std::size_t naive_popcount(const std::vector<bool>& bits) {
  std::size_t count = 0;
  for (const bool b : bits) count += b ? 1 : 0;
  return count;
}

/// Reference adjacent-transition count (the paper's O_Var applied to a
/// whole stream).
inline std::size_t naive_transitions(const std::vector<bool>& bits) {
  std::size_t count = 0;
  for (std::size_t k = 1; k < bits.size(); ++k) {
    if (bits[k] != bits[k - 1]) ++count;
  }
  return count;
}

/// Reference combination id of sample k (input 0 = MSB) — the
/// CaseAnalyzer's per-sample classifier.
inline std::size_t naive_combination(
    const std::vector<std::vector<bool>>& planes, std::size_t k) {
  std::size_t combination = 0;
  for (const std::vector<bool>& plane : planes) {
    combination = (combination << 1) | (plane[k] ? 1U : 0U);
  }
  return combination;
}

// ------------------------------------------------------- ragged slicing

/// The block sizes streaming fuzz cuts deliveries into: single rows,
/// one-off-word boundaries, exact words, a whole chunk, and a ragged
/// cycle. Shared by the sink block-path tests and the SIMD batch tests.
inline const std::vector<std::vector<std::size_t>>& block_slicings() {
  static const std::vector<std::vector<std::size_t>> kSlicings = {
      {1}, {63}, {64}, {65}, {4096}, {1, 7, 64, 65, 3, 256, 31}};
  return kSlicings;
}

/// Cut `total` items into consecutive block lengths cycling through
/// `cycle` (the final block is whatever remains). The returned lengths
/// sum to exactly `total`.
inline std::vector<std::size_t> ragged_slices(
    std::size_t total, const std::vector<std::size_t>& cycle) {
  std::vector<std::size_t> slices;
  std::size_t offset = 0;
  std::size_t next = 0;
  while (offset < total) {
    const std::size_t count =
        std::min(cycle[next % cycle.size()], total - offset);
    slices.push_back(count);
    offset += count;
    ++next;
  }
  return slices;
}

}  // namespace glva::testutil
