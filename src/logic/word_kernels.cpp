#include <algorithm>
#include <bit>
#include <cstring>

#include "logic/word_kernels.h"

// One source, two instruction sets. GCC and Clang clone every kernel for
// x86-64-v3 (AVX2, POPCNT, BMI2) next to the baseline `default` and bind
// the widest the CPU runs through an ifunc resolver at load time. The
// loops below use no intrinsics; they are shaped for the autovectorizer
// (no per-iteration edge branches, loads of a block before its stores).
//
// ThreadSanitizer builds compile the clones out: GCC 12's TSan runtime
// crashes at startup on the ifunc resolvers. Tests compile this file a
// second time with GLVA_WORD_KERNELS_BASELINE defined, which drops the
// attribute and moves the functions into glva::logic::baseline, so the
// `default` clone's code path is checked on hosts that resolve the v3 one.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GLVA_WORD_KERNELS_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define GLVA_WORD_KERNELS_TSAN 1
#endif

#if defined(GLVA_WORD_KERNELS_BASELINE)
#define GLVA_WORD_KERNELS_NAMESPACE glva::logic::baseline
#define GLVA_WORD_KERNEL
#elif (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(GLVA_WORD_KERNELS_TSAN)
#define GLVA_WORD_KERNELS_NAMESPACE glva::logic
#define GLVA_WORD_KERNEL \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define GLVA_WORD_KERNELS_NAMESPACE glva::logic
#define GLVA_WORD_KERNEL
#endif

namespace GLVA_WORD_KERNELS_NAMESPACE {

namespace {

/// Adds the popcounts of words[0, n) into four sums. Four independent
/// chains keep four POPCNTs in flight; one running sum serializes them and
/// took twice as long at 16k words. Inlined into each clone.
inline void add_popcounts(const std::uint64_t* words, std::size_t n,
                          std::size_t (&sum)[4]) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t k = 0; k < 4; ++k) {
      sum[k] += static_cast<std::size_t>(std::popcount(words[i + k]));
    }
  }
  for (; i < n; ++i) {
    sum[0] += static_cast<std::size_t>(std::popcount(words[i]));
  }
}

}  // namespace

GLVA_WORD_KERNEL
void pack_threshold_block(const double* samples, std::size_t words,
                          double threshold, std::uint64_t* out) {
  for (std::size_t w = 0; w < words; ++w) {
    const double* block = samples + w * 64;
    std::uint64_t word = 0;
    // An ordered compare per sample: NaN packs as 0.
    for (std::size_t j = 0; j < 64; ++j) {
      word |= static_cast<std::uint64_t>(block[j] >= threshold) << j;
    }
    out[w] = word;
  }
}

GLVA_WORD_KERNEL
std::size_t popcount_words(const std::uint64_t* words, std::size_t n) {
  std::size_t sum[4] = {0, 0, 0, 0};
  add_popcounts(words, n, sum);
  return sum[0] + sum[1] + sum[2] + sum[3];
}

GLVA_WORD_KERNEL
std::size_t transition_count_words(const std::uint64_t* words, std::size_t n,
                                   std::uint64_t tail_mask) {
  // diff bit k of word i is set iff sample 64i+k differs from its
  // predecessor. Word 0 has no predecessor word and sample 0 none at all;
  // the last word drops the bits above tail_mask. The interior diffs are
  // formed a batch at a time, in a loop the vectorizer takes, and then
  // counted; one loop doing both stays scalar.
  const std::uint64_t first = words[0] ^ (words[0] << 1);
  if (n == 1) {
    return static_cast<std::size_t>(
        std::popcount(first & ~std::uint64_t{1} & tail_mask));
  }
  std::size_t sum[4] = {
      static_cast<std::size_t>(std::popcount(first & ~std::uint64_t{1})), 0,
      0, 0};
  constexpr std::size_t kBatch = 64;
  std::uint64_t diff[kBatch];
  for (std::size_t i = 1; i + 1 < n;) {
    const std::size_t take = std::min(kBatch, n - 1 - i);
    for (std::size_t j = 0; j < take; ++j) {
      const std::uint64_t w = words[i + j];
      diff[j] = w ^ ((w << 1) | (words[i + j - 1] >> 63));
    }
    add_popcounts(diff, take, sum);
    i += take;
  }
  const std::uint64_t last =
      words[n - 1] ^ ((words[n - 1] << 1) | (words[n - 2] >> 63));
  sum[0] += static_cast<std::size_t>(std::popcount(last & tail_mask));
  return sum[0] + sum[1] + sum[2] + sum[3];
}

// The shift kernels tolerate dst == src. The down forms iterate forward:
// iteration i writes index i and reads indices >= i. The up form iterates
// backward: iteration i writes index i and reads indices <= i. So no
// iteration reads a word an earlier one wrote, and a vector block that
// loads before it stores computes the same words as the scalar order.
// A whole-word shift (r == 0) skips the neighbour word: its shift by
// 64 - r would be undefined, and the plain combine is half the work.

GLVA_WORD_KERNEL
void or_shift_down_words(const std::uint64_t* src, std::size_t n,
                         std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const std::size_t r = shift % 64;
  if (q >= n) return;  // the whole view is past the end: OR with zero
  const std::size_t last = n - q - 1;  // the one word whose view hits the end
  const std::uint64_t* from = src + q;
  if (r == 0) {
    for (std::size_t i = 0; i <= last; ++i) dst[i] |= from[i];
    return;
  }
  for (std::size_t i = 0; i < last; ++i) {
    dst[i] |= (from[i] >> r) | (from[i + 1] << (64 - r));
  }
  dst[last] |= from[last] >> r;
}

GLVA_WORD_KERNEL
void and_shift_down_words(const std::uint64_t* src, std::size_t n,
                          std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const std::size_t r = shift % 64;
  if (q >= n) return;  // AND with all-ones: dst unchanged
  const std::size_t last = n - q - 1;
  const std::uint64_t* from = src + q;
  if (r == 0) {
    for (std::size_t i = 0; i <= last; ++i) dst[i] &= from[i];
    return;
  }
  for (std::size_t i = 0; i < last; ++i) {
    dst[i] &= (from[i] >> r) | (from[i + 1] << (64 - r));
  }
  dst[last] &= (from[last] >> r) | (~std::uint64_t{0} << (64 - r));
  // Words past `last` view only past-the-end bits (all ones): unchanged.
}

GLVA_WORD_KERNEL
void or_shift_up_words(const std::uint64_t* src, std::size_t n,
                       std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const std::size_t r = shift % 64;
  if (q >= n) return;
  std::uint64_t* to = dst + q;  // to[i] takes its view from src[i]
  std::size_t i = n - q;
#if defined(__GNUC__)
  // Descending four-word blocks, each loaded whole before it is stored. A
  // plain backward loop vectorizes only behind a runtime overlap check that
  // the in-place case fails, and then with lane reversals.
  typedef std::uint64_t Block __attribute__((vector_size(32)));
  for (; i > 4; i -= 4) {
    Block cur, prev, out;
    std::memcpy(&cur, src + i - 4, sizeof cur);
    std::memcpy(&prev, src + i - 5, sizeof prev);
    std::memcpy(&out, to + i - 4, sizeof out);
    out |= r == 0 ? cur : (cur << r) | (prev >> (64 - r));
    std::memcpy(to + i - 4, &out, sizeof out);
  }
#endif
  while (--i > 0) {
    to[i] |= r == 0 ? src[i] : (src[i] << r) | (src[i - 1] >> (64 - r));
  }
  to[0] |= src[0] << r;
}

}  // namespace GLVA_WORD_KERNELS_NAMESPACE
