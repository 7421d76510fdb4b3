// Micro-benchmarks for the bit-packed stream primitives the analysis stage
// is built on (logic::BitStream / logic::combination_segments): packing,
// popcount, bitwise combination, and the combination-segment split. These
// isolate the word-parallel kernels whose composition bench_analysis_runtime
// measures end to end; each counter reports items/s in *samples*, so packed
// and vector<bool> rows are directly comparable.
//
// The BM_kernel_* rows time the word kernels of logic/word_kernels.h
// directly, in whichever target clone this CPU resolves. `--no-timings`
// skips the benchmark harness entirely and prints a deterministic kernel
// fingerprint (pinned by tests/golden/bench_bitstream_kernels.txt).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "logic/bit_stream.h"
#include "logic/combination_segments.h"
#include "logic/word_kernels.h"
#include "sim/rng.h"

namespace {

using namespace glva;
using logic::BitStream;

/// Deterministic random stream with plateau structure (runs of ~64), the
/// statistical shape of digitized sweep data rather than white noise.
BitStream make_stream(std::size_t bits, std::uint64_t seed) {
  sim::Rng rng(seed);
  BitStream stream(bits);
  bool level = false;
  std::size_t k = 0;
  while (k < bits) {
    const std::size_t run = 1 + rng.below(128);
    for (std::size_t j = 0; j < run && k < bits; ++j, ++k) {
      if (level) stream.set(k, true);
    }
    level = !level;
  }
  return stream;
}

std::vector<bool> make_bools(std::size_t bits, std::uint64_t seed) {
  return make_stream(bits, seed).unpack();
}

void BM_pack(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const std::vector<bool> data = make_bools(bits, 1);
  for (auto _ : state) {
    BitStream stream = BitStream::pack(data);
    benchmark::DoNotOptimize(stream.word_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_popcount(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const BitStream stream = make_stream(bits, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.popcount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

// The vector<bool> equivalent of popcount: what the reference
// VariationAnalyzer pays per HIGH_O count.
void BM_popcount_vector_bool(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const std::vector<bool> data = make_bools(bits, 2);
  for (auto _ : state) {
    std::size_t count = 0;
    for (const bool b : data) count += b ? 1 : 0;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_bitwise_and(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const BitStream a = make_stream(bits, 5);
  const BitStream b = make_stream(bits, 6);
  for (auto _ : state) {
    BitStream c = a & b;
    benchmark::DoNotOptimize(c.word_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_combination_segments(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const std::vector<BitStream> inputs = {
      make_stream(bits, 9), make_stream(bits, 10), make_stream(bits, 11)};
  for (auto _ : state) {
    const auto segments = logic::combination_segments(inputs);
    benchmark::DoNotOptimize(segments.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

// ------------------------------------------------------ word-kernel rows

constexpr std::size_t kKernelBits = 1'000'000;
constexpr std::size_t kKernelWords = kKernelBits / 64;

/// Deterministic analog samples straddling the threshold (same plateau
/// shape as make_stream, rendered as molecule counts).
std::vector<double> make_analog(std::size_t samples, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> values(samples);
  for (double& v : values) v = 15.0 + rng.normal() * 10.0;
  return values;
}

void BM_kernel_pack_threshold(benchmark::State& state) {
  const std::vector<double> analog = make_analog(kKernelBits, 12);
  std::vector<std::uint64_t> words(kKernelWords);
  for (auto _ : state) {
    logic::pack_threshold_block(analog.data(), kKernelWords, 15.0,
                                words.data());
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kKernelBits) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_kernel_popcount(benchmark::State& state) {
  const BitStream stream = make_stream(kKernelBits, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        logic::popcount_words(stream.words().data(), kKernelWords));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kKernelBits) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_kernel_transition_count(benchmark::State& state) {
  const BitStream stream = make_stream(kKernelBits, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::transition_count_words(
        stream.words().data(), kKernelWords, ~std::uint64_t{0}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kKernelBits) *
                          static_cast<std::int64_t>(state.iterations()));
}

// -------------------------------------------------- --no-timings golden

/// Fold a word array to one 64-bit fingerprint (order-sensitive).
std::uint64_t fold_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t fold = 0x9E3779B97F4A7C15ULL;
  for (const std::uint64_t w : words) {
    fold = (fold ^ w) * 0x2545F4914F6CDD1DULL;
  }
  return fold;
}

/// Timing-free mode for the golden test: print the deterministic results
/// of every counting kernel on a fixed input. The bytes do not depend on
/// the CPU: every target clone computes the same bits.
int run_no_timings() {
  const std::vector<double> analog = make_analog(kKernelBits, 12);
  const BitStream a = make_stream(kKernelBits, 13);

  std::vector<std::uint64_t> packed(kKernelWords);
  logic::pack_threshold_block(analog.data(), kKernelWords, 15.0,
                              packed.data());
  std::printf("bench_bitstream kernel fingerprint (%zu bits, seeds 12-14)\n",
              kKernelBits);
  std::printf("pack_threshold_block: %016llx\n",
              static_cast<unsigned long long>(fold_words(packed)));
  std::printf("popcount_words: %zu\n",
              logic::popcount_words(a.words().data(), kKernelWords));
  std::printf("transition_count_words: %zu\n",
              logic::transition_count_words(a.words().data(), kKernelWords,
                                            ~std::uint64_t{0}));
  return 0;
}

}  // namespace

BENCHMARK(BM_pack)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_popcount)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_popcount_vector_bool)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_bitwise_and)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_combination_segments)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_kernel_pack_threshold)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_kernel_popcount)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_kernel_transition_count)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-timings") return run_no_timings();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
