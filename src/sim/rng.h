#pragma once

#include <cstdint>

/// Deterministic pseudo-random number generation for the stochastic
/// simulator. GLVA ships its own generator (xoshiro256**, public domain,
/// Blackman & Vigna) so simulation results are bit-reproducible across
/// platforms and standard-library versions — std::mt19937 distributions are
/// not portable across implementations.
namespace glva::sim {

/// One splitmix64 step (Steele, Lea, Flood): advances `state` by the golden
/// gamma and returns a fully avalanched 64-bit output. This is the mixer the
/// Rng constructor seeds with; it is exposed so seed-derivation code
/// (exec::SeedSequence) shares the exact same machinery.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

class Rng {
public:
  /// Seed via splitmix64 expansion, so consecutive seeds give uncorrelated
  /// streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1) with 53-bit resolution.
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in (0, 1] — safe as a log() argument.
  [[nodiscard]] double uniform_positive() noexcept;

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double normal() noexcept;

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Fork an independent stream (used to give each sweep phase or test
  /// replicate its own reproducible stream).
  [[nodiscard]] Rng split() noexcept;

private:
  std::uint64_t state_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace glva::sim
