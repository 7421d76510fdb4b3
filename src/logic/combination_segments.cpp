#include "logic/combination_segments.h"

#include <bit>
#include <string>

#include "util/errors.h"

namespace glva::logic {

std::vector<CombinationSegment> combination_segments(
    const std::vector<BitStream>& inputs) {
  if (inputs.empty()) {
    throw InvalidArgument("combination_segments: no input streams");
  }
  if (inputs.size() > kMaxCombinationInputs) {
    throw InvalidArgument("combination_segments: more than " +
                          std::to_string(kMaxCombinationInputs) + " inputs");
  }
  const std::size_t samples = inputs.front().size();
  for (const BitStream& input : inputs) {
    if (input.size() != samples) {
      throw InvalidArgument("combination_segments: input stream lengths differ");
    }
  }

  std::vector<CombinationSegment> segments;
  if (samples == 0) return segments;

  const auto combination_at = [&inputs](std::size_t sample) {
    std::size_t combination = 0;
    for (const BitStream& input : inputs) {
      combination = (combination << 1) | (input[sample] ? 1U : 0U);
    }
    return combination;
  };

  const std::size_t words = inputs.front().word_count();
  const std::size_t tail_bits = samples % BitStream::kWordBits;
  CombinationSegment current{combination_at(0), 0, 0};
  for (std::size_t w = 0; w < words; ++w) {
    // Bit k of `changes` is set iff some input differs between samples
    // 64w+k-1 and 64w+k. Sample 0 compares against itself (no change).
    std::uint64_t changes = 0;
    for (const BitStream& input : inputs) {
      const std::span<const std::uint64_t> p = input.words();
      const std::uint64_t carry = w == 0 ? (p[0] & 1U) : (p[w - 1] >> 63);
      changes |= p[w] ^ ((p[w] << 1) | carry);
    }
    // A last input bit of 1 reads as a change into the zero tail.
    if (w + 1 == words && tail_bits != 0) {
      changes &= (std::uint64_t{1} << tail_bits) - 1;
    }
    while (changes != 0) {
      const std::size_t k = w * BitStream::kWordBits +
                            static_cast<std::size_t>(std::countr_zero(changes));
      changes &= changes - 1;
      current.end = k;
      segments.push_back(current);
      current = CombinationSegment{combination_at(k), k, 0};
    }
  }
  current.end = samples;
  segments.push_back(current);
  return segments;
}

}  // namespace glva::logic
