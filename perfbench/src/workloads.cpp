#include "workloads.h"

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/adc.h"
#include "core/logic_analyzer.h"
#include "core/report.h"
#include "exec/parallel_runner.h"
#include "exec/seed_sequence.h"
#include "exec/thread_pool.h"
#include "props/check.h"
#include "props/monitor.h"
#include "props/parser.h"
#include "serve_load.h"
#include "sim/virtual_lab.h"
#include "store/digitizing_sink.h"
#include "store/spill_reader.h"
#include "store/spill_sink.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using glva::store::SinkKind;

/// Tail percentile per workload, fixed so runs compare: the highest one
/// that keeps at least ten samples beyond it at the operation counts a
/// 40-second window yields on a 4-core machine (about 80 verifications,
/// 250 ensembles, 550 reanalysis passes, 8000 requests). Printed with n
/// and the count beyond it.
double tail_percentile(const std::string& workload) {
  if (workload == "verify_deep") return 85.0;
  if (workload == "ensemble_spill") return 95.0;
  // serve_mixed: p99 falls where fresh requests start to queue behind
  // another fresh request on their connection (about 0.2 x 0.08 of all
  // requests at 200/s) and flipped between 9 and 27 ms over ten runs;
  // p95 lies among fresh requests that did not queue.
  if (workload == "serve_mixed") return 95.0;
  return 98.0;
}

/// The percentile latency_p10_ms reports. On a shared host the neighbours
/// only ever slow an operation down, and over minutes they move the
/// median by more than the benchmark's bound; the fastest tenth of the
/// operations is what the program itself sets (see README.md, noise).
constexpr double kLowPercentile = 10.0;

/// Runs the set-up `repeats` times; setup_s is the median. The last
/// repetition's state is what the timed window uses.
template <typename Setup>
double median_setup(int repeats, Setup&& setup) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

/// Runs op(i) for i = 0, 1, ... until `seconds` have passed, timing only
/// the operation; check(i, output) runs after each one, outside its
/// latency. Returns each latency in milliseconds and the window's wall
/// time.
template <typename Op, typename Check>
std::pair<std::vector<double>, double> timed_ops(double seconds, Op&& op,
                                                 Check&& check) {
  std::vector<double> latencies;
  const Clock::time_point window = Clock::now();
  while (latencies.empty() || seconds_since(window) < seconds) {
    const std::size_t i = latencies.size();
    const Clock::time_point start = Clock::now();
    auto output = op(i);
    latencies.push_back(seconds_since(start) * 1e3);
    check(i, output);
  }
  return {std::move(latencies), seconds_since(window)};
}

void add_end_to_end(Report& report, const std::string& workload,
                    double setup_s, const std::vector<double>& latencies_ms,
                    double samples, double wall_s, double rss_mb) {
  const Percentile low = percentile(latencies_ms, kLowPercentile);
  const Percentile p50 = percentile(latencies_ms, 50.0);
  const Percentile tail = percentile(latencies_ms, tail_percentile(workload));
  const auto ops = static_cast<double>(latencies_ms.size());
  // The highest percentile with ten samples beyond it, for reference;
  // the tail line keeps one fixed percentile per workload.
  const double n = static_cast<double>(latencies_ms.size());
  const Percentile highest =
      percentile(latencies_ms, n > 10 ? 100.0 * (1.0 - 10.0 / n) : 0.0);
  // Median, tail and throughput follow the neighbours' load as much as
  // the program, so they are printed but are not metrics.
  std::cout << "latency " << describe(low, "ms") << "\n"
            << "latency " << describe(p50, "ms") << "\n"
            << "latency tail " << describe(tail, "ms") << "\n"
            << "latency highest with ten beyond " << describe(highest, "ms")
            << "\n"
            << "throughput " << samples / wall_s << " samples/s, "
            << ops / wall_s << " operations/s over " << wall_s << " s\n";
  report.add("setup_s", setup_s, "s");
  report.add("latency_p10_ms", low.value, "ms");
  report.add("peak_rss_mb", rss_mb, "MiB");
}

Report verify_deep(const Options& options) {
  Report report;
  // Set-up: catalog build, network compile, request parsing, and the
  // setup-time bodies every timed operation must reproduce.
  reset_peak_rss();
  std::vector<glva::app::Request> requests;
  std::vector<std::string> expected;
  bool references_match = true;
  const double setup_s = median_setup(5, [&] {
    const auto spec = circuit();
    glva::sim::VirtualLab lab(spec.model);
    lab.declare_inputs(spec.input_ids);
    static_cast<void>(lab.network());
    requests.clear();
    expected.clear();
    for (std::size_t k = 0; k < kDeepSeeds; ++k) {
      requests.push_back(deep_request(deep_seed(options.seed, k)));
      const auto response = glva::app::execute(requests.back());
      references_match = references_match && response.exit_code == 0;
      expected.push_back(response.body);
    }
  });
  if (!references_match) report.fail("setup-time verdict is not MATCH");

  const auto [latencies, wall] = timed_ops(
      options.seconds,
      [&](std::size_t i) { return glva::app::execute(requests[i % kDeepSeeds]); },
      [&](std::size_t i, const glva::app::Response& response) {
        report.count(
            response.exit_code == 0 && response.body == expected[i % kDeepSeeds],
            "verify op " + std::to_string(i) + " differs from its setup body");
      });
  const double rss = peak_rss_mb();
  add_end_to_end(report, options.workload, setup_s, latencies,
                 static_cast<double>(latencies.size()) * (kDeepTotalTime + 1),
                 wall, rss);
  return report;
}

Report ensemble_spill(const Options& options) {
  Report report;
  const fs::path spill_dir = fs::path(options.work_dir) / "spill";

  // Set-up: catalog build, network compile, the persistent pool, the
  // spill directory, and the digitize-sink ensembles every timed
  // operation must reproduce.
  reset_peak_rss();
  std::unique_ptr<glva::exec::ThreadPool> pool;
  std::unique_ptr<glva::exec::ParallelRunner> runner;
  glva::circuits::CircuitSpec spec;
  std::vector<std::string> expected;
  bool references_match = true;
  const double setup_s = median_setup(3, [&] {
    runner.reset();
    pool.reset();
    spec = circuit();
    glva::sim::VirtualLab lab(spec.model);
    lab.declare_inputs(spec.input_ids);
    static_cast<void>(lab.network());
    pool = std::make_unique<glva::exec::ThreadPool>(
        glva::exec::ThreadPool::hardware_threads());
    runner = std::make_unique<glva::exec::ParallelRunner>(*pool);
    fs::create_directories(spill_dir);
    expected.clear();
    for (std::size_t k = 0; k < kEnsembleSeeds; ++k) {
      const auto reference = glva::core::run_ensemble(
          spec, ensemble_config(ensemble_seed(options.seed, k),
                                SinkKind::kDigitize, ""),
          kReplicates, *runner);
      references_match = references_match && reference.majority_matches;
      expected.push_back(fingerprint(reference));
    }
  });
  if (!references_match) report.fail("setup-time majority vote is not MATCH");

  const auto [latencies, wall] = timed_ops(
      options.seconds,
      [&](std::size_t i) {
        return glva::core::run_ensemble(
            spec,
            ensemble_config(ensemble_seed(options.seed, i % kEnsembleSeeds),
                            SinkKind::kSpill, spill_dir.string()),
            kReplicates, *runner);
      },
      [&](std::size_t i, const glva::core::EnsembleResult& result) {
        report.count(result.majority_matches &&
                         fingerprint(result) == expected[i % kEnsembleSeeds],
                     "ensemble op " + std::to_string(i) +
                         " differs from the digitize-sink ensemble");
      });
  const double rss = peak_rss_mb();
  add_end_to_end(report, options.workload, setup_s, latencies,
                 static_cast<double>(latencies.size() * kReplicates) *
                     (glva::core::ExperimentConfig{}.total_time + 1),
                 wall, rss);
  return report;
}

Report reanalyze_stored(const Options& options) {
  Report report;
  const auto spec = circuit();
  const auto property = glva::props::parse_property(kGoldenProperty);
  constexpr std::size_t kPoints = std::size(kThresholds);

  // References from the in-memory path: the extraction at every
  // threshold, and the property count of run_check (ThVAL 15) or of the
  // in-memory digitization (the re-digitized thresholds 3 and 40).
  struct Expected {
    std::string extraction;  ///< render() of the in-memory extraction
    std::size_t satisfied = 0;
    std::size_t samples = 0;
  };
  std::vector<Expected> expected(kStoredFiles * kPoints);
  {
    const glva::exec::ParallelRunner runner(1);
    for (std::size_t j = 0; j < kStoredFiles; ++j) {
      glva::core::ExperimentConfig config;
      config.total_time = kDeepTotalTime;
      config.seed = stored_file_seed(options.seed, j);
      const auto memory = glva::core::run_experiment(spec, config);
      for (std::size_t t = 0; t < kPoints; ++t) {
        config.threshold = kThresholds[t];
        const auto data = glva::core::digitize_packed(
            memory.sweep.trace, spec.input_ids, spec.output_id, kThresholds[t]);
        glva::props::PackedNamedPlanes planes;
        planes.names = spec.input_ids;
        planes.names.push_back(spec.output_id);
        for (const auto& input : data.inputs) planes.planes.push_back(&input);
        planes.planes.push_back(&data.output);
        Expected& want = expected[j * kPoints + t];
        want.extraction = render(
            kThresholds[t] == glva::core::ExperimentConfig{}.threshold
                ? memory.extraction
                : glva::core::reanalyze(spec, config, memory.sweep).extraction);
        want.satisfied = glva::props::evaluate_packed(*property, planes).popcount();
        want.samples = data.sample_count();
      }
      glva::core::ExperimentConfig check_config;
      check_config.total_time = kDeepTotalTime;
      check_config.seed = stored_base_seed(options.seed, j);
      check_config.sink = SinkKind::kDigitize;
      const auto check =
          glva::props::run_check(spec, check_config, {property}, 1, runner);
      if (check.first.properties.at(0).satisfied != expected[j * kPoints + 1].satisfied) {
        report.fail("run_check disagrees with the in-memory property count");
      }
    }
  }

  reset_peak_rss();
  const fs::path dir = fs::path(options.work_dir) / "stored";
  const double setup_s = median_setup(5, [&] {
    fs::create_directories(dir);
    for (std::size_t j = 0; j < kStoredFiles; ++j) {
      write_stored(spec, stored_file_seed(options.seed, j),
                   stored_path(dir.string(), j));
    }
  });

  // One operation re-analyzes every (file, threshold) pair, in a seeded
  // order: each operation does the same work, so its latency percentiles
  // do not fall between the pairs' different costs.
  std::vector<std::size_t> order(kStoredFiles * kPoints);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  SeededRng rng(derive(options.seed, 400));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  std::size_t samples = 0;
  const auto [latencies, wall] = timed_ops(
      options.seconds,
      [&](std::size_t) {
        std::vector<Reanalysis> pass;
        for (const std::size_t pair : order) {
          pass.push_back(reanalyze_file(spec,
                                        stored_path(dir.string(), pair / kPoints),
                                        kThresholds[pair % kPoints], *property));
        }
        return pass;
      },
      [&](std::size_t i, const std::vector<Reanalysis>& pass) {
        for (std::size_t k = 0; k < pass.size(); ++k) {
          const std::size_t pair = order[k];
          const Expected& want = expected[pair];
          const Reanalysis& got = pass[k];
          samples += got.samples;
          report.count(
              render(got.extraction) == want.extraction &&
                  got.satisfied == want.satisfied &&
                  got.samples == want.samples,
              "reanalysis op " + std::to_string(i) + " (file " +
                  std::to_string(pair / kPoints) + ", ThVAL " +
                  glva::util::format_double(kThresholds[pair % kPoints]) +
                  ") differs from the in-memory reference");
        }
      });
  const double rss = peak_rss_mb();
  add_end_to_end(report, options.workload, setup_s, latencies,
                 static_cast<double>(samples), wall, rss);
  return report;
}

Report serve_mixed(const Options& options) {
  Report report;
  const std::string socket = (fs::path(options.work_dir) / "d.sock").string();
  RequestSet requests = hot_set(options.seed);

  reset_peak_rss();
  std::unique_ptr<ServeFixture> fixture;
  const double setup_s = median_setup(11, [&] {
    fixture.reset();
    fixture = std::make_unique<ServeFixture>(socket, requests);
  });

  std::vector<std::size_t> arrivals;
  extend_mix(requests, arrivals,
             static_cast<std::size_t>(kReferenceRate * options.seconds),
             options.seed, 0);
  const LoadResult load =
      run_open_loop(socket, requests, arrivals, kReferenceRate);
  const double rss = peak_rss_mb();
  fixture.reset();

  for (const std::string& error : load.errors) report.fail(error);
  // Correctness after the window: every distinct body against app::execute.
  const std::vector<char> bad = bad_requests(requests, load);
  std::vector<double> latencies;
  std::size_t executed = 0;
  for (std::size_t k = 0; k < load.outcomes.size(); ++k) {
    const Outcome& o = load.outcomes[k];
    report.count(o.ok && !bad[o.request],
                 "request " + std::to_string(k) +
                     " failed or its body differs from app::execute");
    latencies.push_back(o.latency_ms());
    executed += o.ok && !o.cached ? 1 : 0;
  }
  const double samples = static_cast<double>(executed) *
                         (glva::core::ExperimentConfig{}.total_time + 1);
  print(breakdown(load));
  add_end_to_end(report, options.workload, setup_s, latencies, samples,
                 load.wall, rss);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "verify_deep", "ensemble_spill", "reanalyze_stored", "serve_mixed"};
  return names;
}

std::uint64_t deep_seed(std::uint64_t seed, std::size_t k) {
  return derive(seed, 100 + k);
}

glva::app::Request deep_request(std::uint64_t op_seed) {
  return glva::app::parse_request(
      glva::app::Request::Op::kVerify, kCircuit,
      {"--total-time", "1000000", "--sink", "digitize", "--seed",
       std::to_string(op_seed), "--no-timings"});
}

std::uint64_t ensemble_seed(std::uint64_t seed, std::size_t k) {
  return derive(seed, 200 + k);
}

glva::core::ExperimentConfig ensemble_config(std::uint64_t op_seed,
                                             SinkKind sink,
                                             const std::string& spill_dir) {
  glva::core::ExperimentConfig config;
  config.seed = op_seed;
  config.sink = sink;
  config.spill_dir = spill_dir;
  return config;
}

std::string fingerprint(const glva::core::EnsembleResult& e) {
  std::string out = glva::core::render_ensemble_summary(e);
  char buffer[64];
  const auto hex = [&](double v) {
    std::snprintf(buffer, sizeof(buffer), " %a", v);
    out += buffer;
  };
  for (const auto& c : e.combination_stats) {
    hex(c.fov_mean);
    hex(c.fov_stddev);
    out += ' ';
    out += std::to_string(c.high_votes);
  }
  hex(e.pfobe.mean);
  hex(e.pfobe.stddev);
  hex(e.wrong_states.mean);
  out += ' ';
  out += std::to_string(e.match_count);
  return out;
}

std::uint64_t stored_base_seed(std::uint64_t seed, std::size_t j) {
  return derive(seed, 300 + j);
}

std::uint64_t stored_file_seed(std::uint64_t seed, std::size_t j) {
  return glva::exec::derive_seed(stored_base_seed(seed, j), 0);
}

std::string stored_path(const std::string& dir, std::size_t j) {
  return (fs::path(dir) / ("stored-" + std::to_string(j) + ".glvt")).string();
}

void write_stored(const glva::circuits::CircuitSpec& spec,
                  std::uint64_t file_seed, const std::string& path) {
  glva::sim::LabOptions lab_options;
  lab_options.seed = file_seed;
  glva::sim::VirtualLab lab(spec.model, lab_options);
  lab.declare_inputs(spec.input_ids);
  glva::store::SpillSink::Options spill;
  spill.seed = file_seed;
  glva::store::SpillSink sink(path, spill);
  const glva::core::ExperimentConfig defaults;
  static_cast<void>(lab.run_combination_sweep_into(
      kDeepTotalTime, defaults.high_level(), sink));
}

std::string render(const glva::core::ExtractionResult& e) {
  return glva::core::render_analytics_table(e) + "expression: " +
         e.expression() + "\nfitness: " +
         glva::util::format_double(e.fitness(), 6) + "\n";
}

Reanalysis reanalyze_file(const glva::circuits::CircuitSpec& spec,
                          const std::string& path, double threshold,
                          const glva::props::Property& property) {
  glva::store::SpillReader reader(path);
  std::vector<std::string> tracked = spec.input_ids;
  tracked.push_back(spec.output_id);
  glva::store::DigitizingSink sink(tracked, threshold);
  reader.replay(sink);
  const auto data = glva::core::take_digitized(sink, spec.input_ids.size());
  const glva::core::LogicAnalyzer analyzer(
      glva::core::AnalyzerConfig{threshold, glva::core::ExperimentConfig{}.fov_ud,
                                 glva::core::AnalysisBackend::kPacked});
  Reanalysis out;
  out.extraction =
      analyzer.analyze_packed(data, spec.input_ids, spec.output_id);
  glva::props::PackedNamedPlanes planes;
  planes.names = tracked;
  for (const auto& input : data.inputs) planes.planes.push_back(&input);
  planes.planes.push_back(&data.output);
  out.satisfied = glva::props::evaluate_packed(property, planes).popcount();
  out.samples = data.sample_count();
  return out;
}

Report run_workload(const Options& options) {
  if (options.workload == "verify_deep") return verify_deep(options);
  if (options.workload == "ensemble_spill") return ensemble_spill(options);
  if (options.workload == "reanalyze_stored") return reanalyze_stored(options);
  if (options.workload == "serve_mixed") return serve_mixed(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace perfbench
