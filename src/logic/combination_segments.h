#pragma once

#include <cstddef>
#include <vector>

#include "logic/bit_stream.h"

/// The packed sample-to-combination classifier of the analysis stage.
/// Digitized sweep data holds each input combination for long plateaus,
/// so the sample axis is described by its *combination segments*: the
/// maximal runs of consecutive samples that share one input combination
/// (the paper's "input combination" id, input 0 = MSB). Counting
/// Algorithm 1's Case_I, HIGH_O and O_Var per segment costs one range
/// popcount per segment instead of one per-sample branch, for any input
/// count — the reference CaseAnalyzer's per-sample loop stays in
/// core/case_analyzer.h as the oracle.
namespace glva::logic {

/// Samples [begin, end) observed under one input combination; begin < end.
struct CombinationSegment {
  std::size_t combination = 0;  ///< input 0 = MSB
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] bool operator==(const CombinationSegment&) const = default;
};

/// Largest input count a combination id is formed for (2^16 combinations;
/// the reference CaseAnalyzer has the same cap).
inline constexpr std::size_t kMaxCombinationInputs = 16;

/// Split the sample axis of the digitized input streams (MSB first) into
/// combination segments, in sample order. The segments tile [0, samples)
/// and two adjacent segments always differ in combination; a combination
/// interrupted and later resumed gets one segment per run. Zero-length
/// streams yield no segments.
///
/// One pass over the N planes: each word's change mask is the OR of the
/// planes' word-level transitions p ^ ((p << 1) | carry), and each set
/// bit starts a new segment. O(N · (samples/64 + segments)) time,
/// O(segments) memory. Throws glva::InvalidArgument when `inputs` is
/// empty, has more than kMaxCombinationInputs entries, or the streams
/// have mismatched lengths.
[[nodiscard]] std::vector<CombinationSegment> combination_segments(
    const std::vector<BitStream>& inputs);

}  // namespace glva::logic
