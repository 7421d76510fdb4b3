#include "logic/bit_stream.h"

#include <bit>

#include "logic/word_kernels.h"
#include "util/errors.h"

namespace glva::logic {

BitStream BitStream::pack(const std::vector<bool>& bits) {
  BitStream stream(bits.size());
  for (std::size_t w = 0; w < stream.words_.size(); ++w) {
    const std::size_t base = w * kWordBits;
    const std::size_t limit = std::min(kWordBits, bits.size() - base);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < limit; ++j) {
      word |= static_cast<std::uint64_t>(bits[base + j]) << j;
    }
    stream.words_[w] = word;
  }
  return stream;
}

BitStream BitStream::from_words(std::size_t size,
                                std::vector<std::uint64_t> words) {
  if (words.size() != (size + kWordBits - 1) / kWordBits) {
    throw InvalidArgument("BitStream::from_words: word count does not match");
  }
  BitStream stream;
  stream.size_ = size;
  stream.words_ = std::move(words);
  if (!stream.words_.empty()) stream.words_.back() &= stream.tail_mask();
  return stream;
}

std::vector<bool> BitStream::unpack() const {
  std::vector<bool> bits(size_);
  for (std::size_t k = 0; k < size_; ++k) bits[k] = (*this)[k];
  return bits;
}

void BitStream::push_back(bool bit) {
  const std::size_t index = size_++;
  if (index % kWordBits == 0) words_.push_back(0);
  if (bit) words_.back() |= std::uint64_t{1} << (index % kWordBits);
}

void BitStream::append_word(std::uint64_t word) {
  if (size_ % kWordBits != 0) {
    throw InvalidArgument(
        "BitStream::append_word: size() must be a word multiple");
  }
  words_.push_back(word);
  size_ += kWordBits;
}

void BitStream::append_words(std::span<const std::uint64_t> words) {
  if (size_ % kWordBits != 0) {
    throw InvalidArgument(
        "BitStream::append_words: size() must be a word multiple");
  }
  words_.insert(words_.end(), words.begin(), words.end());
  size_ += words.size() * kWordBits;
}

void BitStream::append_bits(std::uint64_t word, std::size_t count) {
  if (size_ % kWordBits != 0) {
    throw InvalidArgument(
        "BitStream::append_bits: size() must be a word multiple");
  }
  if (count > kWordBits) {
    throw InvalidArgument("BitStream::append_bits: count must be <= 64");
  }
  if (count == 0) return;
  size_ += count;
  words_.push_back(word & tail_mask());
}

bool BitStream::test(std::size_t index) const {
  if (index >= size_) {
    throw InvalidArgument("BitStream::test: index out of range");
  }
  return (*this)[index];
}

void BitStream::set(std::size_t index, bool value) {
  if (index >= size_) {
    throw InvalidArgument("BitStream::set: index out of range");
  }
  const std::uint64_t bit = std::uint64_t{1} << (index % kWordBits);
  if (value) {
    words_[index / kWordBits] |= bit;
  } else {
    words_[index / kWordBits] &= ~bit;
  }
}

std::uint64_t BitStream::word(std::size_t w) const {
  if (w >= words_.size()) {
    throw InvalidArgument("BitStream::word: index out of range");
  }
  return words_[w];
}

void BitStream::set_word(std::size_t w, std::uint64_t value) {
  if (w >= words_.size()) {
    throw InvalidArgument("BitStream::set_word: index out of range");
  }
  if (w + 1 == words_.size()) value &= tail_mask();
  words_[w] = value;
}

std::size_t BitStream::popcount() const {
  return popcount_words(words_.data(), words_.size());
}

std::size_t BitStream::transition_count() const {
  if (size_ < 2) return 0;
  return transition_count_words(words_.data(), words_.size(), tail_mask());
}

namespace {

/// Ones at bit positions [lo, hi] of a word (lo <= hi < 64).
std::uint64_t bit_span(std::size_t lo, std::size_t hi) {
  return (~std::uint64_t{0} << lo) & (~std::uint64_t{0} >> (63 - hi));
}

void require_range(std::size_t begin, std::size_t end, std::size_t size,
                   const char* what) {
  if (begin > end || end > size) {
    throw InvalidArgument(std::string(what) + ": range out of bounds");
  }
}

}  // namespace

std::size_t BitStream::popcount(std::size_t begin, std::size_t end) const {
  require_range(begin, end, size_, "BitStream::popcount");
  if (begin == end) return 0;
  const std::size_t first = begin / kWordBits;
  const std::size_t last = (end - 1) / kWordBits;
  const std::size_t lo = begin % kWordBits;
  const std::size_t hi = (end - 1) % kWordBits;
  if (first == last) {
    return static_cast<std::size_t>(
        std::popcount(words_[first] & bit_span(lo, hi)));
  }
  return static_cast<std::size_t>(
             std::popcount(words_[first] & bit_span(lo, kWordBits - 1))) +
         popcount_words(words_.data() + first + 1, last - first - 1) +
         static_cast<std::size_t>(std::popcount(words_[last] &
                                                bit_span(0, hi)));
}

std::size_t BitStream::transition_count(std::size_t begin,
                                        std::size_t end) const {
  require_range(begin, end, size_, "BitStream::transition_count");
  if (end - begin < 2) return 0;
  const std::size_t first = begin / kWordBits;
  const std::size_t last = (end - 1) / kWordBits;
  const std::size_t lo = begin % kWordBits;
  const std::size_t hi = (end - 1) % kWordBits;
  if (first == last) {
    const std::uint64_t w = words_[first];
    return static_cast<std::size_t>(
        std::popcount((w ^ (w << 1)) & bit_span(lo + 1, hi)));
  }
  // The kernel counts every position in (64·first, end); drop the ones at
  // or below `begin`, whose predecessor lies outside the range.
  std::size_t count = transition_count_words(
      words_.data() + first, last - first + 1, bit_span(0, hi));
  if (lo != 0) {
    const std::uint64_t w = words_[first];
    count -= static_cast<std::size_t>(
        std::popcount((w ^ (w << 1)) & bit_span(1, lo)));
  }
  return count;
}

namespace {

/// Shared size check for the binary word-parallel operations.
void require_same_size(const BitStream& a, const BitStream& b,
                       const char* what) {
  if (a.size() != b.size()) {
    throw InvalidArgument(std::string(what) + ": stream sizes differ");
  }
}

template <typename Op>
BitStream combine(const BitStream& a, const BitStream& b, Op op,
                  const char* what) {
  require_same_size(a, b, what);
  BitStream out(a.size());
  for (std::size_t w = 0; w < a.word_count(); ++w) {
    out.set_word(w, op(a.word(w), b.word(w)));
  }
  return out;
}

}  // namespace

BitStream BitStream::operator&(const BitStream& other) const {
  return combine(*this, other,
                 [](std::uint64_t x, std::uint64_t y) { return x & y; },
                 "BitStream::operator&");
}

BitStream BitStream::operator|(const BitStream& other) const {
  return combine(*this, other,
                 [](std::uint64_t x, std::uint64_t y) { return x | y; },
                 "BitStream::operator|");
}

BitStream BitStream::operator^(const BitStream& other) const {
  return combine(*this, other,
                 [](std::uint64_t x, std::uint64_t y) { return x ^ y; },
                 "BitStream::operator^");
}

BitStream BitStream::operator~() const {
  BitStream out(size_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    out.set_word(w, ~words_[w]);  // set_word re-masks the tail
  }
  return out;
}

}  // namespace glva::logic
