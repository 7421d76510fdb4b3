#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "logic/bit_stream.h"

/// Complete single-output truth tables over up to 16 inputs. Input
/// combinations are indexed by their binary value with input 0 as the MSB —
/// i.e. index("A=1,B=0,C=0") == 0b100 — matching the paper's "input
/// combination 100" notation. Outputs are stored bit-packed
/// (logic::BitStream), so row-set operations (minterm listing, table
/// comparison) run as word-parallel popcount scans.
namespace glva::logic {

class TruthTable {
public:
  /// All-false table over `input_count` inputs. Throws
  /// glva::InvalidArgument unless 1 <= input_count <= 16.
  explicit TruthTable(std::size_t input_count);

  /// Default: a 1-input constant-0 placeholder, so result structs that
  /// carry a table stay default-constructible before being filled in.
  TruthTable() : TruthTable(1) {}

  /// Table from the list of high combinations.
  static TruthTable from_minterms(std::size_t input_count,
                                  const std::vector<std::size_t>& minterms);

  /// Table from packed bits: bit i of `bits` is the output for combination
  /// i. Only the low 2^input_count bits are read.
  static TruthTable from_bits(std::size_t input_count, std::uint64_t bits);

  [[nodiscard]] std::size_t input_count() const noexcept { return input_count_; }
  [[nodiscard]] std::size_t row_count() const noexcept {
    return static_cast<std::size_t>(1) << input_count_;
  }

  /// Output for one combination; throws glva::InvalidArgument when
  /// combination >= row_count().
  [[nodiscard]] bool output(std::size_t combination) const;
  /// Set one combination's output; same range check as output().
  void set_output(std::size_t combination, bool value);

  /// Ascending list of high combinations.
  [[nodiscard]] std::vector<std::size_t> minterms() const;

  /// Number of high combinations (popcount over the packed rows). O(2^N/64).
  [[nodiscard]] std::size_t minterm_count() const {
    return outputs_.popcount();
  }

  /// Packed form: bit i = output(i). Throws glva::InvalidArgument when
  /// input_count > 6 (the rows would not fit in 64 bits).
  [[nodiscard]] std::uint64_t to_bits() const;

  /// Binary rendering of a combination index, MSB first ("011").
  [[nodiscard]] std::string combination_label(std::size_t combination) const;

  /// Multi-line rendering with the given input names and an output column.
  [[nodiscard]] std::string to_string(const std::vector<std::string>& input_names,
                                      const std::string& output_name) const;

  /// Combinations where the two tables disagree, ascending (word-parallel
  /// XOR over the packed rows — what the verifier's wrong-state totals
  /// are computed from); throws glva::InvalidArgument when the input
  /// counts differ.
  [[nodiscard]] std::vector<std::size_t> differing_rows(const TruthTable& other) const;

  [[nodiscard]] bool operator==(const TruthTable& other) const = default;

  // -- standard functions, for tests and the circuit catalog ---------------
  static TruthTable and_gate(std::size_t inputs);
  static TruthTable or_gate(std::size_t inputs);
  static TruthTable nand_gate(std::size_t inputs);
  static TruthTable nor_gate(std::size_t inputs);
  static TruthTable xor_gate(std::size_t inputs);   // odd parity
  static TruthTable xnor_gate(std::size_t inputs);  // even parity
  static TruthTable not_gate();                     // 1 input
  static TruthTable majority(std::size_t inputs);   // strictly more 1s than 0s
  static TruthTable minority(std::size_t inputs);   // complement of majority

private:
  std::size_t input_count_;
  BitStream outputs_;  ///< bit c = output for combination c
};

}  // namespace glva::logic
