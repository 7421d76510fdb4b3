#pragma once

#include <cstddef>
#include <vector>

#include "core/case_analyzer.h"

/// The VariationAnalyzer sub-procedure of Algorithm 1 (line 6): for each
/// input combination it "calculates the number of times a logic-1 appears"
/// (HIGH_O) and "how many times the output varies, i.e. changing 0-to-1 and
/// 1-to-0" (O_Var).
///
/// Two implementations: `analyze_segments`, the production path, counts
/// Case_I, HIGH_O and O_Var per combination segment of bit-packed streams;
/// `analyze_variation` is its reference oracle over the materialized
/// per-combination streams of `analyze_cases`. Both produce bit-identical
/// VariationAnalysis values — HIGH_O, O_Var, and Case_I are integers, and
/// FOV_EST divides the same integers in the same order.
namespace glva::core {

/// Per-combination stability statistics.
struct VariationRecord {
  std::size_t combination = 0;
  std::size_t case_count = 0;       ///< Case_I[i], copied for convenience
  std::size_t high_count = 0;       ///< HIGH_O[i]: logic-1 samples
  std::size_t variation_count = 0;  ///< O_Var[i]: 0->1 and 1->0 transitions
  /// FOV_EST[i] = O_Var[i] / Case_I[i] (equation (1)); 0 when unobserved.
  double fov_est = 0.0;
};

struct VariationAnalysis {
  std::size_t input_count = 0;
  std::vector<VariationRecord> records;  ///< indexed by combination
};

/// Count highs and transitions within each per-combination output stream —
/// the reference implementation, one pass over every logged bit.
/// Transitions are counted inside the logged stream exactly as the paper's
/// example does (Figure 2(b): stream "0...010...01..1" for case 00 has
/// O_Var = 2). Postcondition: records.size() == cases.cases.size(), in the
/// same combination order, with fov_est in [0, 1) wherever case_count > 0.
/// O(samples) total across combinations.
[[nodiscard]] VariationAnalysis analyze_variation(const CaseAnalysis& cases);

/// Algorithm 1 lines 5-6 over bit-packed streams, per combination segment
/// (logic::combination_segments): Case_I adds the segment length, HIGH_O
/// a range popcount of the output, and O_Var the transitions inside the
/// segment plus one when the combination was seen before and its last
/// logged output bit differs from the segment's first — the logged stream
/// of a combination interrupted and later resumed continues across the
/// gap. Bit-identical to analyze_variation(analyze_cases(unpack(data)))
/// for every input count up to 16. Throws glva::InvalidArgument when the
/// streams have mismatched lengths, there are no inputs, or there are
/// more than 16 of them. O(N · (samples/64 + segments)) time plus
/// O(2^N) for the records.
[[nodiscard]] VariationAnalysis analyze_segments(const PackedDigitalData& data);

}  // namespace glva::core
