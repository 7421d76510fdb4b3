// The word-kernel suite (src/logic/word_kernels.{h,cpp}). Every kernel is
// checked against a naive oracle — lengths 0/1/63/64/65/4095/4096/4097,
// misaligned pointers, dst == src aliasing, dirty bits above the tail
// mask, NaN/±inf/±0/threshold-equal doubles — twice:
//  - "library": the functions in glva_core, i.e. whichever target clone
//    this CPU resolves (x86-64-v3 on AVX2 hosts);
//  - "baseline": the same source compiled into this binary a second time
//    with the clone attribute off, at the build's baseline ISA — the
//    `default` clone's code, which AVX2 hosts would otherwise never run.
// The kernels' callers (BitStream counts, adc_packed, the word packers)
// are then checked once through the library.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/adc.h"
#include "fuzz_util.h"
#include "logic/bit_stream.h"
#include "logic/word_kernels.h"
#include "logic/word_pack.h"
#include "sim/rng.h"

// The baseline copy: glva::logic::baseline::*, no target_clones.
#define GLVA_WORD_KERNELS_BASELINE
#include "logic/word_kernels.cpp"  // NOLINT(bugprone-suspicious-include)

namespace {

using namespace glva;
using logic::BitStream;
using testutil::naive_popcount;
using testutil::naive_transitions;
using testutil::random_bools;
using testutil::random_words;
using testutil::special_doubles;

constexpr double kThreshold = 15.0;

/// The lengths every kernel is swept over (words, or samples for the
/// per-sample forms): empty, single, and either side of 64 and of 4096.
const std::vector<std::size_t> kLengths = {0,  1,    63,   64,
                                           65, 4095, 4096, 4097};

using ShiftKernel = void (*)(const std::uint64_t*, std::size_t, std::size_t,
                             std::uint64_t*);

/// One build of the kernel source.
struct Kernels {
  const char* name;
  void (*pack_threshold_block)(const double*, std::size_t, double,
                               std::uint64_t*);
  std::size_t (*popcount_words)(const std::uint64_t*, std::size_t);
  std::size_t (*transition_count_words)(const std::uint64_t*, std::size_t,
                                        std::uint64_t);
  ShiftKernel or_shift_down_words;
  ShiftKernel and_shift_down_words;
  ShiftKernel or_shift_up_words;
};

const Kernels kLibrary = {
    "library",
    &logic::pack_threshold_block,
    &logic::popcount_words,
    &logic::transition_count_words,
    &logic::or_shift_down_words,
    &logic::and_shift_down_words,
    &logic::or_shift_up_words,
};

const Kernels kBaseline = {
    "baseline",
    &logic::baseline::pack_threshold_block,
    &logic::baseline::popcount_words,
    &logic::baseline::transition_count_words,
    &logic::baseline::or_shift_down_words,
    &logic::baseline::and_shift_down_words,
    &logic::baseline::or_shift_up_words,
};

// gtest names a failing case by its build.
void PrintTo(const Kernels& kernels, std::ostream* os) { *os << kernels.name; }

std::uint64_t tail_mask_for(std::size_t bits) {
  const std::size_t rem = bits % BitStream::kWordBits;
  return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
}

/// The first `bits` bits of `words`, LSB-first.
std::vector<bool> unpack(const std::uint64_t* words, std::size_t bits) {
  std::vector<bool> out(bits);
  for (std::size_t k = 0; k < bits; ++k) {
    out[k] = ((words[k / 64] >> (k % 64)) & 1U) != 0;
  }
  return out;
}

class WordKernels : public ::testing::TestWithParam<Kernels> {};

TEST_P(WordKernels, PackThresholdBlockMatchesComparison) {
  const Kernels& k = GetParam();
  sim::Rng rng(101);
  for (const std::size_t words : kLengths) {
    // +8 doubles of slack so every offset misaligns the vector loads
    // without reading past the buffer.
    const std::vector<double> buffer =
        special_doubles(words * 64 + 8, kThreshold, rng);
    for (const std::size_t offset : {0u, 1u, 3u, 7u}) {
      const double* samples = buffer.data() + offset;
      // One sentinel word past the end: the kernel writes exactly `words`.
      std::vector<std::uint64_t> out(words + 1, 0xFEEDFACEu);
      k.pack_threshold_block(samples, words, kThreshold, out.data());
      ASSERT_EQ(out[words], 0xFEEDFACEu) << "words " << words;
      for (std::size_t j = 0; j < words * 64; ++j) {
        const bool expected = samples[j] >= kThreshold;
        const bool actual = ((out[j / 64] >> (j % 64)) & 1U) != 0;
        ASSERT_EQ(actual, expected)
            << "words " << words << ", offset " << offset << ", sample " << j
            << " = " << samples[j];
      }
    }
  }
}

TEST_P(WordKernels, PopcountMatchesNaiveAcrossLengthsAndAlignment) {
  const Kernels& k = GetParam();
  sim::Rng rng(107);
  for (const std::size_t n : kLengths) {
    const std::vector<std::uint64_t> a = random_words(n + 1, rng);
    for (const std::size_t offset : {0u, 1u}) {  // +8 bytes breaks vector
      const std::uint64_t* words = a.data() + offset;  // alignment
      EXPECT_EQ(k.popcount_words(words, n),
                naive_popcount(unpack(words, n * 64)))
          << "n " << n << ", offset " << offset;
    }
  }
}

TEST_P(WordKernels, TransitionCountMatchesNaiveAcrossTails) {
  // Random words everywhere, so the bits above the tail mask are dirty:
  // the range forms of BitStream::transition_count hand the kernel a word
  // window whose last word still holds samples past the range.
  const Kernels& k = GetParam();
  sim::Rng rng(109);
  std::vector<std::size_t> bit_lengths = {2, 31, 127, 128, 129};
  for (const std::size_t n : kLengths) {
    if (n != 0) bit_lengths.push_back(n);
    if (n > 1) bit_lengths.push_back(n * 64);  // a full last word
  }
  for (const std::size_t bits : bit_lengths) {
    const std::size_t n = (bits + 63) / 64;
    const std::vector<std::uint64_t> a = random_words(n + 1, rng);
    for (const std::size_t offset : {0u, 1u}) {
      const std::uint64_t* words = a.data() + offset;
      EXPECT_EQ(k.transition_count_words(words, n, tail_mask_for(bits)),
                naive_transitions(unpack(words, bits)))
          << "bits " << bits << ", offset " << offset;
    }
  }
}

// The shift-combine kernels' executable spec: per-bit over the 64n-bit
// array, with out-of-range view bits reading 0 for the OR forms and 1
// for the AND form.
enum class ShiftKind { kOrDown, kAndDown, kOrUp };

std::vector<std::uint64_t> naive_shift_combine(
    const std::vector<std::uint64_t>& src,
    const std::vector<std::uint64_t>& dst, std::size_t shift,
    ShiftKind kind) {
  const std::size_t bits = src.size() * 64;
  std::vector<std::uint64_t> out = dst;
  for (std::size_t j = 0; j < bits; ++j) {
    bool view;
    if (kind == ShiftKind::kOrUp) {
      view = j >= shift && ((src[(j - shift) / 64] >> ((j - shift) % 64)) &
                            1U) != 0;
    } else {
      const std::size_t k = j + shift;
      view = k < bits ? ((src[k / 64] >> (k % 64)) & 1U) != 0
                      : kind == ShiftKind::kAndDown;
    }
    const bool current = ((out[j / 64] >> (j % 64)) & 1U) != 0;
    const bool combined = kind == ShiftKind::kAndDown ? (current && view)
                                                      : (current || view);
    if (combined) {
      out[j / 64] |= std::uint64_t{1} << (j % 64);
    } else {
      out[j / 64] &= ~(std::uint64_t{1} << (j % 64));
    }
  }
  return out;
}

/// Runs `kernel` on copies of `src`/`dst` placed `offset` words into
/// buffers filled with guard words (`offset` before, one after), checks
/// the guards, and returns the n result words. With `aliased`, `dst` is ignored and the
/// kernel runs in place on the copy of `src`.
std::vector<std::uint64_t> run_shift(ShiftKernel kernel,
                                     const std::vector<std::uint64_t>& src,
                                     const std::vector<std::uint64_t>& dst,
                                     std::size_t shift, std::size_t offset,
                                     bool aliased) {
  constexpr std::uint64_t kGuard = 0x5A5A5A5A5A5A5A5Au;
  const std::size_t n = src.size();
  std::vector<std::uint64_t> src_buf(n + offset + 1, kGuard);
  std::vector<std::uint64_t> dst_buf(n + offset + 1, kGuard);
  std::copy(src.begin(), src.end(), src_buf.begin() + offset);
  std::copy(dst.begin(), dst.end(), dst_buf.begin() + offset);
  std::vector<std::uint64_t>& out_buf = aliased ? src_buf : dst_buf;
  kernel(src_buf.data() + offset, n, shift, out_buf.data() + offset);
  EXPECT_EQ(out_buf.back(), kGuard) << "wrote past the end";
  if (offset != 0) {
    EXPECT_EQ(out_buf.front(), kGuard) << "wrote before dst";
  }
  return {out_buf.begin() + offset, out_buf.end() - 1};
}

TEST_P(WordKernels, ShiftCombineKernelsMatchNaiveIncludingAliasing) {
  const Kernels& k = GetParam();
  sim::Rng rng(131);
  const struct {
    ShiftKind kind;
    ShiftKernel kernel;
    const char* name;
  } cases[] = {
      {ShiftKind::kOrDown, k.or_shift_down_words, "or_shift_down"},
      {ShiftKind::kAndDown, k.and_shift_down_words, "and_shift_down"},
      {ShiftKind::kOrUp, k.or_shift_up_words, "or_shift_up"},
  };
  for (const std::size_t words : kLengths) {
    for (const std::size_t shift :
         {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{127},
          std::size_t{128}, std::size_t{129}, words * 64 - 1, words * 64,
          words * 64 + 7}) {
      const std::vector<std::uint64_t> src = random_words(words, rng);
      const std::vector<std::uint64_t> dst = random_words(words, rng);
      for (const auto& c : cases) {
        const std::vector<std::uint64_t> expected =
            naive_shift_combine(src, dst, shift, c.kind);
        // The in-place cascade case: dst aliases src exactly.
        const std::vector<std::uint64_t> expected_aliased =
            naive_shift_combine(src, src, shift, c.kind);
        for (const std::size_t offset : {0u, 1u}) {
          EXPECT_EQ(run_shift(c.kernel, src, dst, shift, offset, false),
                    expected)
              << c.name << ", words " << words << ", shift " << shift
              << ", offset " << offset;
          EXPECT_EQ(run_shift(c.kernel, src, dst, shift, offset, true),
                    expected_aliased)
              << c.name << " aliased, words " << words << ", shift " << shift
              << ", offset " << offset;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Builds, WordKernels,
                         ::testing::Values(kLibrary, kBaseline),
                         [](const ::testing::TestParamInfo<Kernels>& info) {
                           return std::string(info.param.name);
                         });

// ------------------------------------------------ the kernels' callers

TEST(WordKernelCallers, BitStreamCountsMatchNaive) {
  sim::Rng rng(131);
  for (const std::size_t n : kLengths) {
    const std::vector<bool> ra = random_bools(n, rng);
    const BitStream a = BitStream::pack(ra);
    EXPECT_EQ(a.popcount(), naive_popcount(ra)) << "n " << n;
    EXPECT_EQ(a.transition_count(), naive_transitions(ra)) << "n " << n;
    // A range spanning several words on both ends (the per-segment
    // counters' multi-word case).
    const std::size_t begin = n / 3;
    const std::size_t end = n - n / 5;
    const std::vector<bool> range(ra.begin() + static_cast<long>(begin),
                                  ra.begin() + static_cast<long>(end));
    EXPECT_EQ(a.popcount(begin, end), naive_popcount(range)) << "n " << n;
    EXPECT_EQ(a.transition_count(begin, end), naive_transitions(range))
        << "n " << n;
  }
}

TEST(WordKernelCallers, AdcPackedMatchesReferenceAdc) {
  sim::Rng rng(137);
  for (const std::size_t n : kLengths) {
    const std::vector<double> analog = special_doubles(n, kThreshold, rng);
    EXPECT_EQ(core::adc_packed(analog, kThreshold).unpack(),
              core::adc(analog, kThreshold))
        << "n " << n;
  }
}

TEST(WordKernelCallers, WordPackersMatchScalarComparison) {
  sim::Rng rng(139);
  const std::vector<double> samples = special_doubles(64, kThreshold, rng);
  std::uint64_t expected = 0;
  for (std::size_t j = 0; j < 64; ++j) {
    expected |= static_cast<std::uint64_t>(samples[j] >= kThreshold) << j;
  }
  EXPECT_EQ(logic::pack_threshold_word64(samples.data(), kThreshold),
            expected);
  for (const std::size_t count : {0u, 1u, 31u, 63u, 64u}) {
    const std::uint64_t mask =
        count == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << count) - 1);
    EXPECT_EQ(logic::pack_threshold_bits(samples.data(), count, kThreshold),
              expected & mask)
        << "count " << count;
  }
}

}  // namespace
