// Runtime claim (Section IV): "the proposed algorithm takes about 8.4
// seconds to analyze the logic of a complex genetic circuit with
// significantly large-sized data."
//
// Two groups of rows, all at 10^6 samples unless the row says otherwise:
//
//  * BM_analysis / BM_analysis_oracle — the whole analysis stage (ADC ->
//    CaseAnalyzer -> VariationAnalyzer -> ConstBoolExpr) on a 3-input
//    sweep-shaped trace from 10^4 to 10^7 samples: the one production
//    path (LogicAnalyzer::analyze) against the vector<bool> oracle
//    (digitize -> analyze_cases -> analyze_variation -> construct_bool_expr).
//    Shape target: both linear in sample count, a multi-million-sample
//    trace in the seconds range of the paper's anecdote or well below.
//
//  * BM_segments / BM_segments_oracle — Algorithm 1 lines 5-6 alone on
//    pre-digitized streams at N = 3, 8 and 16 inputs: core::analyze_segments
//    against analyze_variation(analyze_cases(...)). Shape 0 holds each
//    combination for one plateau per sweep phase (2^N segments, the shape of
//    every catalog sweep); shape 1 flips every input with probability 1/2
//    per sample (about one segment per sample, the worst case for the
//    segment path, whose cost follows the number of combination changes).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/logic_analyzer.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace {

using namespace glva;

constexpr std::size_t kSegmentSamples = 1'000'000;

/// Synthesize a sweep-shaped trace: 3 clamped inputs cycling through all
/// combinations, output following C*(A'+B) with a noisy plateau — the same
/// statistical profile the real simulator produces, but generated fast
/// enough to scale to 10^7 samples.
sim::Trace make_trace(std::size_t samples, std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::Trace trace({"A", "B", "C", "GFP"});
  const std::size_t per_combo = samples / 8 + 1;
  std::vector<double> row(4);
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t combo = (k / per_combo) % 8;
    const bool a = (combo & 4U) != 0;
    const bool b = (combo & 2U) != 0;
    const bool c = (combo & 1U) != 0;
    row[0] = a ? 15.0 : 0.0;
    row[1] = b ? 15.0 : 0.0;
    row[2] = c ? 15.0 : 0.0;
    const bool high = c && (!a || b);
    const double mean = high ? 55.0 : 1.2;
    // Gaussian approximation of the Poisson plateau noise.
    row[3] = mean + rng.normal() * (high ? 7.4 : 1.1);
    if (row[3] < 0.0) row[3] = 0.0;
    trace.append(static_cast<double>(k), row);
  }
  return trace;
}

/// Digitized streams of `inputs` inputs. Shape 0: clamped phases, each of
/// the 2^N combinations held for samples / 2^N samples in sweep order.
/// Shape 1: every input bit uniformly random (50 % flip probability). The
/// output is high with probability 0.9 under odd combinations and 0.1
/// under even ones, so it carries both highs and transitions.
core::DigitalData make_streams(std::size_t inputs, int shape,
                               std::uint64_t seed) {
  sim::Rng rng(seed);
  core::DigitalData data;
  data.inputs.assign(inputs, std::vector<bool>(kSegmentSamples));
  data.output.resize(kSegmentSamples);
  const std::size_t combinations = std::size_t{1} << inputs;
  const std::size_t per_combo = kSegmentSamples / combinations + 1;
  for (std::size_t k = 0; k < kSegmentSamples; ++k) {
    const std::size_t combo =
        shape == 0 ? k / per_combo : rng.below(combinations);
    for (std::size_t i = 0; i < inputs; ++i) {
      data.inputs[i][k] = ((combo >> (inputs - 1 - i)) & 1U) != 0;
    }
    data.output[k] = rng.uniform() < ((combo & 1U) != 0 ? 0.9 : 0.1);
  }
  return data;
}

void BM_analysis(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const sim::Trace trace = make_trace(samples, 42);
  const core::LogicAnalyzer analyzer(core::AnalyzerConfig{15.0, 0.25});

  for (auto _ : state) {
    auto result = analyzer.analyze(trace, {"A", "B", "C"}, "GFP");
    benchmark::DoNotOptimize(result.construction.fitness_percent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_analysis_oracle(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const sim::Trace trace = make_trace(samples, 42);

  for (auto _ : state) {
    const core::DigitalData data =
        core::digitize(trace, {"A", "B", "C"}, "GFP", 15.0);
    const core::BoolConstruction construction = core::construct_bool_expr(
        core::analyze_variation(core::analyze_cases(data)), 0.25,
        {"A", "B", "C"});
    benchmark::DoNotOptimize(construction.fitness_percent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_segments(benchmark::State& state) {
  const auto inputs = static_cast<std::size_t>(state.range(0));
  const core::PackedDigitalData data =
      core::pack(make_streams(inputs, static_cast<int>(state.range(1)), 7));
  for (auto _ : state) {
    const core::VariationAnalysis variation = core::analyze_segments(data);
    benchmark::DoNotOptimize(variation.records.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kSegmentSamples) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_segments_oracle(benchmark::State& state) {
  const auto inputs = static_cast<std::size_t>(state.range(0));
  const core::DigitalData data =
      make_streams(inputs, static_cast<int>(state.range(1)), 7);
  for (auto _ : state) {
    const core::VariationAnalysis variation =
        core::analyze_variation(core::analyze_cases(data));
    benchmark::DoNotOptimize(variation.records.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kSegmentSamples) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_adc_only(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const sim::Trace trace = make_trace(samples, 42);
  for (auto _ : state) {
    auto digital = core::digitize(trace, {"A", "B", "C"}, "GFP", 15.0);
    benchmark::DoNotOptimize(digital.output.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_adc_only_packed(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const sim::Trace trace = make_trace(samples, 42);
  for (auto _ : state) {
    auto digital = core::digitize_packed(trace, {"A", "B", "C"}, "GFP", 15.0);
    benchmark::DoNotOptimize(digital.output.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          static_cast<std::int64_t>(state.iterations()));
}

/// (inputs, shape) pairs of the segment rows.
void segment_args(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"inputs", "flip"});
  for (const int inputs : {3, 8, 16}) {
    for (const int shape : {0, 1}) bench->Args({inputs, shape});
  }
}

}  // namespace

BENCHMARK(BM_analysis)
    ->Arg(10'000)->Arg(100'000)->Arg(1'000'000)->Arg(10'000'000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_analysis_oracle)
    ->Arg(10'000)->Arg(100'000)->Arg(1'000'000)->Arg(10'000'000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_segments)->Apply(segment_args)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_segments_oracle)->Apply(segment_args)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_adc_only)->Arg(1'000'000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_adc_only_packed)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
