// Unit tests for the bit-packed stream machinery (logic::BitStream,
// logic::combination_segments) and its equivalence with the vector<bool>
// reference path: edge cases (empty streams, non-word-multiple lengths,
// tail-word masking), word-parallel op correctness against naive
// re-implementations, and randomized fuzz of the segment split and the
// range counters the analysis stage runs on.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/adc.h"
#include "fuzz_util.h"
#include "logic/bit_stream.h"
#include "logic/combination_segments.h"
#include "sim/rng.h"
#include "util/errors.h"

namespace {

using namespace glva;
using logic::BitStream;
using logic::CombinationSegment;

// Generators and naive references shared with test_store and
// test_simd_kernels (tests/fuzz_util.h).
using testutil::naive_combination;
using testutil::naive_popcount;
using testutil::naive_transitions;
using testutil::random_bools;
using testutil::random_combination_planes;

// ------------------------------------------------------------ edge cases

TEST(BitStream, EmptyStream) {
  const BitStream empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.word_count(), 0u);
  EXPECT_EQ(empty.popcount(), 0u);
  EXPECT_EQ(empty.transition_count(), 0u);
  EXPECT_EQ(empty, BitStream::pack({}));
  EXPECT_EQ((~empty).size(), 0u);
  EXPECT_EQ(empty.popcount(0, 0), 0u);
  EXPECT_EQ(empty.transition_count(0, 0), 0u);
  EXPECT_TRUE(empty.unpack().empty());
}

TEST(BitStream, PushBackAndIndexing) {
  BitStream stream;
  const std::vector<bool> pattern = {true, false, false, true, true};
  for (const bool b : pattern) stream.push_back(b);
  ASSERT_EQ(stream.size(), pattern.size());
  for (std::size_t k = 0; k < pattern.size(); ++k) {
    EXPECT_EQ(stream[k], pattern[k]) << k;
    EXPECT_EQ(stream.test(k), pattern[k]) << k;
  }
  EXPECT_EQ(stream.unpack(), pattern);
}

TEST(BitStream, NonWordMultipleLengths) {
  sim::Rng rng(11);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 100u, 128u, 129u, 1000u}) {
    const std::vector<bool> bits = random_bools(n, rng);
    const BitStream stream = BitStream::pack(bits);
    EXPECT_EQ(stream.size(), n);
    EXPECT_EQ(stream.word_count(), (n + 63) / 64);
    EXPECT_EQ(stream.popcount(), naive_popcount(bits)) << n;
    EXPECT_EQ(stream.transition_count(), naive_transitions(bits)) << n;
    EXPECT_EQ(stream.unpack(), bits) << n;
  }
}

TEST(BitStream, TailWordMaskingInSetWord) {
  BitStream stream(70);  // 6 valid bits in the second word
  stream.set_word(1, ~std::uint64_t{0});
  EXPECT_EQ(stream.word(1), 0x3FULL);  // only the low 6 bits survive
  EXPECT_EQ(stream.popcount(), 6u);
}

TEST(BitStream, TailWordMaskingInNot) {
  const BitStream zeros(70);
  const BitStream ones = ~zeros;
  EXPECT_EQ(ones.size(), 70u);
  EXPECT_EQ(ones.popcount(), 70u);  // not 128: the tail stays zero
  EXPECT_EQ((~ones).popcount(), 0u);
  // Exact word multiple: no tail to mask.
  EXPECT_EQ((~BitStream(128)).popcount(), 128u);
}

TEST(BitStream, TailWordMaskingInBitwiseOps) {
  BitStream a(70);
  BitStream b(70);
  for (std::size_t k = 0; k < 70; k += 2) a.set(k, true);
  for (std::size_t k = 0; k < 70; k += 3) b.set(k, true);
  const std::vector<bool> ra = a.unpack();
  const std::vector<bool> rb = b.unpack();
  for (std::size_t k = 0; k < 70; ++k) {
    EXPECT_EQ((a & b)[k], ra[k] && rb[k]);
    EXPECT_EQ((a | b)[k], ra[k] || rb[k]);
    EXPECT_EQ((a ^ b)[k], ra[k] != rb[k]);
  }
  EXPECT_EQ((a & b).popcount() + (a ^ b).popcount(), (a | b).popcount());
}

TEST(BitStream, RangeAndSizeChecks) {
  BitStream stream(10);
  EXPECT_THROW((void)stream.test(10), InvalidArgument);
  EXPECT_THROW(stream.set(10, true), InvalidArgument);
  EXPECT_THROW((void)stream.word(1), InvalidArgument);
  EXPECT_THROW(stream.set_word(1, 0), InvalidArgument);
  const BitStream other(11);
  EXPECT_THROW((void)(stream & other), InvalidArgument);
  EXPECT_THROW((void)(stream | other), InvalidArgument);
  EXPECT_THROW((void)(stream ^ other), InvalidArgument);
  EXPECT_THROW((void)stream.popcount(0, 11), InvalidArgument);
  EXPECT_THROW((void)stream.popcount(6, 5), InvalidArgument);
  EXPECT_THROW((void)stream.transition_count(0, 11), InvalidArgument);
  EXPECT_THROW((void)stream.transition_count(6, 5), InvalidArgument);
}

// --------------------------------------------- fuzz vs the naive reference

TEST(BitStream, FuzzBitwiseOpsMatchVectorBool) {
  sim::Rng rng(21);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.below(400);
    const std::vector<bool> ra = random_bools(n, rng);
    const std::vector<bool> rb = random_bools(n, rng);
    const BitStream a = BitStream::pack(ra);
    const BitStream b = BitStream::pack(rb);
    std::vector<bool> and_ref(n), or_ref(n), xor_ref(n), not_ref(n);
    for (std::size_t k = 0; k < n; ++k) {
      and_ref[k] = ra[k] && rb[k];
      or_ref[k] = ra[k] || rb[k];
      xor_ref[k] = ra[k] != rb[k];
      not_ref[k] = !ra[k];
    }
    EXPECT_EQ((a & b).unpack(), and_ref);
    EXPECT_EQ((a | b).unpack(), or_ref);
    EXPECT_EQ((a ^ b).unpack(), xor_ref);
    EXPECT_EQ((~a).unpack(), not_ref);
    EXPECT_EQ((a & b).popcount(), naive_popcount(and_ref));
    EXPECT_EQ(a.popcount(), naive_popcount(ra));
    EXPECT_EQ(a.transition_count(), naive_transitions(ra));
  }
}

TEST(BitStream, FuzzRangeCountsMatchNaive) {
  // Ranges inside one word, across word boundaries, empty, single-sample,
  // ending on the ragged tail, and the whole stream — every case of the
  // range forms.
  sim::Rng rng(31);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + rng.below(500);
    const std::vector<bool> bits = random_bools(n, rng);
    const BitStream stream = BitStream::pack(bits);
    std::size_t begin = rng.below(n + 1);
    std::size_t end = rng.below(n + 1);
    if (begin > end) std::swap(begin, end);
    if (round % 5 == 0) end = n;
    if (round % 10 == 0) begin = 0;  // the whole stream
    const std::vector<bool> range(bits.begin() + static_cast<long>(begin),
                                  bits.begin() + static_cast<long>(end));
    EXPECT_EQ(stream.popcount(begin, end), naive_popcount(range))
        << "n " << n << " [" << begin << ", " << end << ")";
    EXPECT_EQ(stream.transition_count(begin, end), naive_transitions(range))
        << "n " << n << " [" << begin << ", " << end << ")";
  }
}

// -------------------------------------------------- combination segments

TEST(CombinationSegments, RunsAreMaximalMsbFirst) {
  // 2 inputs, 7 samples; input 0 is the MSB of the combination id.
  const BitStream msb =
      BitStream::pack({false, false, true, true, true, false, false});
  const BitStream lsb =
      BitStream::pack({false, true, false, true, true, true, true});
  const std::vector<CombinationSegment> expected = {
      {0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 3, 5}, {1, 5, 7}};
  EXPECT_EQ(logic::combination_segments({msb, lsb}), expected);
}

TEST(CombinationSegments, Validation) {
  EXPECT_THROW((void)logic::combination_segments({}), InvalidArgument);
  EXPECT_THROW((void)logic::combination_segments(std::vector<BitStream>(
                   logic::kMaxCombinationInputs + 1, BitStream(8))),
               InvalidArgument);
  EXPECT_THROW((void)logic::combination_segments({BitStream(8), BitStream(9)}),
               InvalidArgument);
  EXPECT_TRUE(logic::combination_segments({BitStream(), BitStream()}).empty());
}

TEST(CombinationSegments, FuzzSegmentsTileTheSamplesAndMatchTheClassifier) {
  // Every input count up to the cap, plateaus from single-sample flicker
  // up to several words, and sample counts on both sides of a word edge.
  sim::Rng rng(41);
  for (std::size_t inputs = 1; inputs <= logic::kMaxCombinationInputs;
       ++inputs) {
    for (const std::size_t samples : {1ul, 63ul, 64ul, 65ul, 1000ul}) {
      for (const std::size_t max_run : {1ul, 5ul, 200ul}) {
        const auto planes =
            random_combination_planes(inputs, samples, max_run, rng);
        std::vector<BitStream> packed;
        for (const auto& plane : planes) {
          packed.push_back(BitStream::pack(plane));
        }
        const std::vector<CombinationSegment> segments =
            logic::combination_segments(packed);

        std::size_t next = 0;
        for (std::size_t s = 0; s < segments.size(); ++s) {
          const CombinationSegment& segment = segments[s];
          ASSERT_EQ(segment.begin, next) << inputs << " inputs";
          ASSERT_LT(segment.begin, segment.end);
          if (s > 0) {
            ASSERT_NE(segment.combination, segments[s - 1].combination);
          }
          for (std::size_t k = segment.begin; k < segment.end; ++k) {
            ASSERT_EQ(segment.combination, naive_combination(planes, k))
                << inputs << " inputs, sample " << k;
          }
          next = segment.end;
        }
        EXPECT_EQ(next, samples) << inputs << " inputs";
      }
    }
  }
}

// ------------------------------------------------------------ ADC, packing

TEST(PackedAnalysis, AdcPackedMatchesAdc) {
  sim::Rng rng(61);
  std::vector<double> analog(257);
  for (double& v : analog) v = rng.normal() * 10.0 + 15.0;
  EXPECT_EQ(core::adc_packed(analog, 15.0).unpack(), core::adc(analog, 15.0));
  EXPECT_THROW((void)core::adc_packed(analog, 0.0), InvalidArgument);
}

TEST(PackedAnalysis, PackUnpackRoundTrip) {
  sim::Rng rng(71);
  core::DigitalData data;
  data.inputs.push_back(random_bools(100, rng));
  data.inputs.push_back(random_bools(100, rng));
  data.output = random_bools(100, rng);
  const core::PackedDigitalData packed = core::pack(data);
  EXPECT_EQ(packed.input_count(), data.input_count());
  EXPECT_EQ(packed.sample_count(), data.sample_count());
  const core::DigitalData back = core::unpack(packed);
  EXPECT_EQ(back.inputs, data.inputs);
  EXPECT_EQ(back.output, data.output);
}

}  // namespace
