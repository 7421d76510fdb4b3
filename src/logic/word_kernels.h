#pragma once

#include <cstddef>
#include <cstdint>

/// The analysis-stage word kernels: the ADC's threshold packer, the
/// counters behind Algorithm 1's per-segment statistics, and the shift
/// passes of the temporal-property monitor. All word arrays are
/// `logic::BitStream` words (LSB-first, 64 samples per word); no pointer
/// needs any alignment beyond its element type's.
///
/// One portable source (word_kernels.cpp) written for the autovectorizer.
/// On x86-64 ELF builds with GCC or Clang each function is compiled twice
/// through `target_clones` — an x86-64-v3 (AVX2, POPCNT) clone and the
/// baseline `default` — and the loader picks one per process from CPUID.
/// Both clones come from the same source, so the result is the same bits
/// on every host; `tests/test_simd_kernels.cpp` pins both against naive
/// oracles. See docs/ANALYSIS.md ("Word kernels").
namespace glva::logic {

/// Pack `words * 64` threshold comparisons: out[w] bit j =
/// (samples[64w + j] >= threshold), NaN comparing false. Precondition:
/// `samples` points at exactly `words * 64` readable doubles (use
/// logic::pack_threshold_bits for ragged tails).
void pack_threshold_block(const double* samples, std::size_t words,
                          double threshold, std::uint64_t* out);

/// Σ popcount(words[i]) over i in [0, n).
[[nodiscard]] std::size_t popcount_words(const std::uint64_t* words,
                                         std::size_t n);

/// Adjacent-bit transitions across the word array: bit k of word w counts
/// iff sample 64w+k differs from its predecessor sample. Bit 0 of word 0
/// has no predecessor and never counts; the last word's diff bits are
/// masked by `tail_mask` (ones at the valid bit positions), so bits above
/// it are ignored — which lets the range forms of
/// BitStream::transition_count run it over any word window.
/// Precondition: n >= 1.
[[nodiscard]] std::size_t transition_count_words(const std::uint64_t* words,
                                                 std::size_t n,
                                                 std::uint64_t tail_mask);

// Sliding-window building blocks of the temporal-property monitor
// (src/props/monitor.cpp, docs/PROPERTIES.md): combine `dst` with a
// bit-shifted view of `src` across the whole n-word array. "Down" shifts
// toward sample 0 (bit j of the view is src bit j + shift), "up" toward
// higher samples (bit j is src bit j - shift); `shift` is an arbitrary bit
// count, not a word multiple. Bits of the view that fall outside [0, 64n)
// read as 0 for the OR forms and as 1 for the AND form (a bounded-globally
// window truncated at the trace edge must not fail) — measured against the
// 64n-bit word array, so callers with ragged tails pre-fill the tail bits
// to match and re-mask afterwards. `dst` may alias `src` exactly (the
// in-place cascade case); partial overlap is not supported.

/// dst[j] |= src[j + shift] over the whole array (zero past the end).
void or_shift_down_words(const std::uint64_t* src, std::size_t n,
                         std::size_t shift, std::uint64_t* dst);

/// dst[j] &= src[j + shift] over the whole array (ones past the end).
void and_shift_down_words(const std::uint64_t* src, std::size_t n,
                          std::size_t shift, std::uint64_t* dst);

/// dst[j] |= src[j - shift] over the whole array (zero before bit 0).
void or_shift_up_words(const std::uint64_t* src, std::size_t n,
                       std::size_t shift, std::uint64_t* dst);

}  // namespace glva::logic
