#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "logic/word_kernels.h"

/// The threshold word packers shared by the analysis-stage ADC
/// (`core::adc_packed`) and the fused sampler→ADC sink
/// (`store::DigitizingSink`). Lives in logic/ so both layers reuse one
/// kernel without a core/ ↔ store/ dependency cycle. The one-word form is
/// a thin wrapper over `pack_threshold_block` (logic/word_kernels.h);
/// bulk producers call that directly over a whole batch of words.
namespace glva::logic {

/// Pack 64 consecutive threshold comparisons into one word, bit j =
/// (samples[j] >= threshold); NaN compares false, exactly like the
/// scalar `>=`.
///
/// PRECONDITION: `samples` points at exactly 64 readable doubles — this
/// function always reads all 64 (asserted in debug builds; in release
/// a short buffer is out-of-bounds UB). For a ragged tail of fewer than
/// 64 samples use `pack_threshold_bits`, which takes the length.
inline std::uint64_t pack_threshold_word64(const double* samples,
                                           double threshold) {
  assert(samples != nullptr && "pack_threshold_word64: 64 doubles required");
  std::uint64_t word = 0;
  pack_threshold_block(samples, 1, threshold, &word);
  return word;
}

/// Length-taking safe variant for ragged tails: pack the first `count`
/// comparisons (count <= 64, asserted) into the low `count` bits of the
/// result; higher bits are zero — ready for `BitStream::append_bits` or
/// ORing into a partially filled pending word. Reads exactly `count`
/// doubles, so it is safe on buffers shorter than a full word. O(count).
inline std::uint64_t pack_threshold_bits(const double* samples,
                                         std::size_t count, double threshold) {
  assert(count <= 64 && "pack_threshold_bits: at most one word per call");
  std::uint64_t word = 0;
  for (std::size_t j = 0; j < count; ++j) {
    word |= static_cast<std::uint64_t>(samples[j] >= threshold) << j;
  }
  return word;
}

}  // namespace glva::logic
