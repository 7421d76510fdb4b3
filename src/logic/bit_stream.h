#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// Bit-packed binary streams — the storage format of the digitized species
/// traces Algorithm 1 scans. One logic sample per bit, 64 samples per
/// machine word. `std::vector<bool>` packs bits too, but only exposes
/// them through per-element proxies; BitStream's words are first-class,
/// so the per-sample loops of the analysis stage become word-parallel
/// mask/popcount passes — 64 samples per AND/XOR and one hardware
/// popcount per word instead of a read-modify-write per bit.
namespace glva::logic {

/// A growable bit sequence stored LSB-first in 64-bit words: sample k
/// lives in bit (k mod 64) of word (k / 64).
///
/// Class invariant: bits at positions >= size() in the last word are zero
/// (the "tail invariant"). Every mutator maintains it, which is what makes
/// `popcount()`, `operator~`, and word-level iteration safe without
/// per-call tail handling.
class BitStream {
public:
  static constexpr std::size_t kWordBits = 64;

  /// Empty stream (size() == 0, word_count() == 0).
  BitStream() = default;

  /// Zero-filled stream of `size` bits.
  explicit BitStream(std::size_t size)
      : size_(size), words_((size + kWordBits - 1) / kWordBits, 0) {}

  /// Pack a `vector<bool>` (the reference representation) bit for bit.
  /// O(bits.size()).
  [[nodiscard]] static BitStream pack(const std::vector<bool>& bits);

  /// Adopt a pre-built word array (the zero-overhead path for bulk
  /// producers like the packed ADC: fill a plain vector, move it in, pay
  /// one tail-masking at adoption instead of a range check per word).
  /// `words.size()` must be exactly ceil(size / 64) — throws
  /// glva::InvalidArgument otherwise. Bits beyond `size` in the last word
  /// are masked off. O(1) beyond the move.
  [[nodiscard]] static BitStream from_words(std::size_t size,
                                            std::vector<std::uint64_t> words);

  /// Unpack back to the reference representation. O(size()).
  [[nodiscard]] std::vector<bool> unpack() const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }

  /// Append one bit. Amortized O(1).
  void push_back(bool bit);

  /// Append 64 bits in one store (bit j of `word` becomes sample
  /// size() + j) — the bulk path of word-buffering producers like
  /// `store::DigitizingSink`, 64 samples per call instead of 64
  /// read-modify-writes. Requires size() to be a word multiple; throws
  /// glva::InvalidArgument otherwise. Amortized O(1).
  void append_word(std::uint64_t word);

  /// Append the low `count` bits of `word` (count <= 64; higher bits are
  /// ignored) — the tail flush of a word-buffering producer. Same
  /// word-alignment precondition as `append_word`; throws
  /// glva::InvalidArgument when size() is not a word multiple or
  /// count > 64. O(1).
  void append_bits(std::uint64_t word, std::size_t count);

  /// Append a run of whole words in one bulk insert (one alignment check
  /// and one capacity step for the batch instead of per word) — the
  /// batched commit of `store::DigitizingSink::append_block`. Same
  /// word-alignment precondition as `append_word`. Amortized
  /// O(words.size()).
  void append_words(std::span<const std::uint64_t> words);

  /// Reserve word storage for `bits` bits without changing size() — one
  /// allocation up front for a producer that knows its final length.
  void reserve(std::size_t bits) {
    words_.reserve((bits + kWordBits - 1) / kWordBits);
  }

  /// Read bit `index` without a range check (precondition: index < size()).
  [[nodiscard]] bool operator[](std::size_t index) const noexcept {
    return ((words_[index / kWordBits] >> (index % kWordBits)) & 1U) != 0;
  }
  /// Read bit `index`; throws glva::InvalidArgument when index >= size().
  [[nodiscard]] bool test(std::size_t index) const;
  /// Write bit `index`; throws glva::InvalidArgument when index >= size().
  void set(std::size_t index, bool value);

  /// Word `w` (bits [64w, 64w+64) of the stream, LSB = lowest sample
  /// index); throws glva::InvalidArgument when w >= word_count(). Tail bits
  /// of the last word are guaranteed zero.
  [[nodiscard]] std::uint64_t word(std::size_t w) const;

  /// Read-only view of the whole word array — the unchecked fast path for
  /// word-level iteration in hot kernels (the tail invariant makes every
  /// word safe to consume as-is).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Bulk-set word `w` in one store (the fast path of the packed ADC);
  /// bits beyond size() are masked off to keep the tail invariant. Throws
  /// glva::InvalidArgument when w >= word_count().
  void set_word(std::size_t w, std::uint64_t value);

  /// Number of 1-bits, counted word-parallel (logic/word_kernels.h).
  /// O(size()/64).
  [[nodiscard]] std::size_t popcount() const;

  /// Number of adjacent 0→1 / 1→0 transitions (the paper's O_Var counting
  /// applied to the whole stream), word-parallel (logic/word_kernels.h).
  /// O(size()/64).
  [[nodiscard]] std::size_t transition_count() const;

  /// Range forms over the samples [begin, end) — the per-segment HIGH_O
  /// and O_Var counters of the analysis stage. popcount counts the
  /// 1-bits in the range; transition_count counts the samples k with
  /// begin < k < end that differ from sample k - 1, so a range never
  /// sees a transition across its own edges. Both run on the same word
  /// kernels as the whole-stream forms; a range inside one
  /// word is a single masked popcount. Throw glva::InvalidArgument unless
  /// begin <= end <= size(). O((end - begin)/64 + 1).
  [[nodiscard]] std::size_t popcount(std::size_t begin, std::size_t end) const;
  [[nodiscard]] std::size_t transition_count(std::size_t begin,
                                             std::size_t end) const;

  // Word-parallel bitwise combinations. The binary operators throw
  // glva::InvalidArgument when the sizes differ; operator~ re-masks the
  // tail so the invariant holds. All are O(size()/64).
  [[nodiscard]] BitStream operator&(const BitStream& other) const;
  [[nodiscard]] BitStream operator|(const BitStream& other) const;
  [[nodiscard]] BitStream operator^(const BitStream& other) const;
  [[nodiscard]] BitStream operator~() const;

  [[nodiscard]] bool operator==(const BitStream& other) const = default;

private:
  /// Mask with ones at the valid bit positions of the last word (all-ones
  /// when size() is a word multiple or the stream is empty).
  [[nodiscard]] std::uint64_t tail_mask() const noexcept {
    const std::size_t rem = size_ % kWordBits;
    return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace glva::logic
