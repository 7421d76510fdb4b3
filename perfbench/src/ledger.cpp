// The traced run: decomposes each workload's operation into its calls into
// the GLVA layers (crn, sim, store, core, props, exec, serve, app), times
// every call inside a span recorded from this file, and reads obs::
// snapshot() counters at the same boundaries. Every per-layer metric is
// printed on every workload; `--workload` picks whose operation is also
// timed with and without tracing to give the tracing overhead.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "core/adc.h"
#include "core/logic_analyzer.h"
#include "core/verifier.h"
#include "exec/parallel_runner.h"
#include "exec/seed_sequence.h"
#include "exec/thread_pool.h"
#include "props/monitor.h"
#include "props/parser.h"
#include "serve/client.h"
#include "serve_load.h"
#include "sim/virtual_lab.h"
#include "spans.h"
#include "store/digitizing_sink.h"
#include "store/spill_reader.h"
#include "store/spill_sink.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using glva::obs::Snapshot;

/// Keeps every `stride`-th sampled state of a sweep (species amounts in
/// network order) and discards the rest.
class StateSampler final : public glva::store::TraceSink {
 public:
  explicit StateSampler(std::size_t stride) : stride_(stride) {}
  void begin(const std::vector<std::string>&) override {}
  void append(double, const std::vector<double>& values) override {
    if (row_++ % stride_ == 0) states_.push_back(values);
  }
  void append_block(std::span<const double> times,
                    std::span<const std::span<const double>> series) override {
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (row_++ % stride_ != 0) continue;
      std::vector<double>& state = states_.emplace_back();
      for (const auto& column : series) state.push_back(column[i]);
    }
  }
  void finish() override {}
  [[nodiscard]] const std::vector<std::vector<double>>& states() const {
    return states_;
  }

 private:
  std::size_t stride_;
  std::size_t row_ = 0;
  std::vector<std::vector<double>> states_;
};

/// Forwards every call to `inner` inside its own span, so the store layer
/// shows as child spans (and self time) of the sweep or replay driving it.
class TimedSink final : public glva::store::TraceSink {
 public:
  TimedSink(glva::store::TraceSink& inner, SpanRecorder& recorder,
            std::string name, std::uint64_t op)
      : inner_(inner), recorder_(recorder), name_(std::move(name)), op_(op) {}
  void begin(const std::vector<std::string>& names) override {
    timed([&] { inner_.begin(names); });
  }
  void append(double time, const std::vector<double>& values) override {
    timed([&] { inner_.append(time, values); });
  }
  void append_block(std::span<const double> times,
                    std::span<const std::span<const double>> series) override {
    timed([&] { inner_.append_block(times, series); });
  }
  void finish() override {
    timed([&] { inner_.finish(); });
  }
  /// Seconds spent inside `inner` so far.
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  template <typename Call>
  void timed(Call&& call) {
    const Clock::time_point start = Clock::now();
    {
      const ScopedSpan span(recorder_, name_, op_);
      call();
    }
    seconds_ += seconds_since(start);
  }

  glva::store::TraceSink& inner_;
  SpanRecorder& recorder_;
  std::string name_;
  std::uint64_t op_;
  double seconds_ = 0.0;
};

glva::sim::VirtualLab make_lab(const glva::circuits::CircuitSpec& spec,
                               std::uint64_t seed) {
  glva::sim::LabOptions options;
  options.seed = seed;
  glva::sim::VirtualLab lab(spec.model, options);
  lab.declare_inputs(spec.input_ids);
  return lab;
}

double high_level() { return glva::core::ExperimentConfig{}.high_level(); }

std::vector<std::string> tracked(const glva::circuits::CircuitSpec& spec) {
  std::vector<std::string> ids = spec.input_ids;
  ids.push_back(spec.output_id);
  return ids;
}

/// The traced run's state: span recorder, per-layer results, and the
/// report whose correctness checks the ledger also feeds.
class Ledger {
 public:
  Ledger(const Options& options, Report& report)
      : options_(options), report_(report), spec_(circuit()) {}

  void run() {
    sim_store_app();
    ensemble();
    stored();
    serve();
    overhead();
  }

  /// Per-layer metrics in the order BENCHMARK.json lists them; counter
  /// metrics missing from the snapshot (GLVA_NO_METRICS) stay absent.
  void emit() {
    for (const auto& [name, unit] : kLayout) {
      const auto it = values_.find(name);
      if (it == values_.end() || !it->second) {
        std::cout << name << " = absent (metrics compiled out)\n";
        continue;
      }
      report_.add(name, *it->second, unit);
    }
  }

  void print_self_times() const {
    std::cout << "span self times (count, total s, self s):\n";
    for (const SpanTotals& t : totals_by_name(recorder_.spans())) {
      std::printf("  %-28s %6zu %12.6f %12.6f\n", t.name.c_str(), t.count,
                  t.total, t.self);
    }
  }

  void write_spans(const fs::path& path) const {
    std::ofstream out(path);
    recorder_.write_json(out);
    std::cout << "spans written to " << path.string() << "\n";
  }

 private:
  static inline const std::vector<std::pair<std::string, std::string>> kLayout = {
      {"sim.sweep_s", "s"},
      {"sim.ssa_steps", "count"},
      {"sim.firings", "count"},
      {"sim.ns_per_step", "ns"},
      {"sim.steps_per_sample", "ratio"},
      {"crn.propensity_ns", "ns"},
      {"crn.compile_ms", "ms"},
      {"store.digitize_s", "s"},
      {"store.spill_write_s", "s"},
      {"store.spill_bytes_per_sample", "B"},
      {"store.flush_wait_us_p99", "us"},
      {"store.open_ms", "ms"},
      {"store.replay_s", "s"},
      {"core.adc_s", "s"},
      {"core.analyze_ns_per_sample", "ns"},
      {"core.verify_us", "us"},
      {"props.monitor_ns_per_sample", "ns"},
      {"exec.tasks", "count"},
      {"exec.task_us_p50", "us"},
      {"exec.task_us_p99", "us"},
      {"exec.reduce_stall_us", "us"},
      {"exec.cpu_util", "ratio"},
      {"serve.hit_us_p50", "us"},
      {"serve.hit_us_p99", "us"},
      {"serve.cold_ms_p50", "ms"},
      {"serve.cold_ms_p99", "ms"},
      {"serve.hit_ratio", "ratio"},
      {"serve.executed", "count"},
      {"serve.coalesced", "count"},
      {"serve.rejected", "count"},
      {"serve.queue_depth_max", "count"},
      {"serve.gen_late_ms_p99", "ms"},
      {"serve.max_ok_rps", "1/s"},
      {"app.overhead_ms", "ms"},
      {"trace.overhead_us", "us"},
  };

  void set(const std::string& name, std::optional<double> value) {
    values_[name] = value;
  }

  /// Times `call` inside a span; returns seconds.
  template <typename Call>
  double timed(const std::string& name, Call&& call) {
    const Clock::time_point start = Clock::now();
    {
      const ScopedSpan span(recorder_, name, op_);
      call();
    }
    return seconds_since(start);
  }

  /// Counts that must repeat exactly when the same work runs again at the
  /// same seed; a difference marks the run incorrect.
  void expect_repeat(const std::string& what, std::optional<double> first,
                     std::optional<double> again) {
    if (first != again) {
      report_.fail(what + " did not repeat exactly at a fixed seed");
    }
  }

  // crn + sim + store(digitize) + core + app: verify_deep's operation.
  void sim_store_app() {
    ++op_;
    const ScopedSpan stage(recorder_, "ledger.verify_deep", op_);
    const std::uint64_t seed = derive(options_.seed, 700);
    constexpr int kRepeats = 3;

    std::vector<double> compile;
    for (int r = 0; r < 5; ++r) {
      auto lab = make_lab(spec_, seed);
      compile.push_back(timed("crn.compile", [&] {
        static_cast<void>(lab.network());
      }));
    }
    const double compile_s = median(compile);
    set("crn.compile_ms", compile_s * 1e3);

    // Sweeps into a discarding sink (the simulator's self time) and into
    // a DigitizingSink (time inside the sink is the store layer's).
    std::vector<double> sweep, digitize, digitize_sweep, execute;
    std::optional<double> steps, firings;
    std::optional<glva::core::PackedDigitalData> data;
    for (int r = 0; r < kRepeats; ++r) {
      auto lab = make_lab(spec_, seed);
      static_cast<void>(lab.network());
      DiscardSink discard;
      TimedSink discard_timed(discard, recorder_, "store.discard", op_);
      const Snapshot before = glva::obs::snapshot();
      const double total = timed("sim.sweep", [&] {
        static_cast<void>(lab.run_combination_sweep_into(
            kDeepTotalTime, high_level(), discard_timed));
      });
      sweep.push_back(total - discard_timed.seconds());
      const Snapshot after = glva::obs::snapshot();
      const ObsDelta delta(before, after);
      if (r == 0) {
        steps = delta.counter("sim.ssa.steps");
        firings = delta.counter("sim.ssa.firings");
      } else {
        expect_repeat("sim.ssa.steps", steps, delta.counter("sim.ssa.steps"));
        expect_repeat("sim.ssa.firings", firings,
                      delta.counter("sim.ssa.firings"));
      }

      auto lab2 = make_lab(spec_, seed);
      static_cast<void>(lab2.network());
      glva::store::DigitizingSink sink(tracked(spec_),
                                       glva::core::ExperimentConfig{}.threshold);
      TimedSink sink_timed(sink, recorder_, "store.digitize", op_);
      digitize_sweep.push_back(timed("sim.sweep", [&] {
        static_cast<void>(lab2.run_combination_sweep_into(
            kDeepTotalTime, high_level(), sink_timed));
      }));
      digitize.push_back(sink_timed.seconds());
      data = glva::core::take_digitized(sink, spec_.input_ids.size());

      // app::execute on the same seed right after, so its pairing with
      // this repeat's digitize sweep cancels slow drift of the machine.
      glva::app::Response response;
      execute.push_back(timed("app.execute", [&] {
        response = glva::app::execute(deep_request(seed));
      }));
      report_.count(response.exit_code == 0,
                    "ledger app::execute verdict is not MATCH");
    }
    const double sweep_s = median(sweep);
    const auto samples = static_cast<double>(data->sample_count());
    set("sim.sweep_s", sweep_s);
    set("sim.ssa_steps", steps);
    set("sim.firings", firings);
    set("sim.ns_per_step",
        steps ? std::optional<double>(sweep_s * 1e9 / *steps) : std::nullopt);
    set("sim.steps_per_sample",
        steps ? std::optional<double>(*steps / samples) : std::nullopt);
    set("store.digitize_s", median(digitize));

    // Propensity evaluation over states sampled from the same realization.
    {
      auto lab = make_lab(spec_, seed);
      const auto& network = lab.network();
      StateSampler sampler(1000);
      static_cast<void>(
          lab.run_combination_sweep_into(kDeepTotalTime, high_level(), sampler));
      std::vector<std::vector<double>> states;
      for (const auto& sampled : sampler.states()) {
        std::vector<double> values = network.initial_values();
        std::copy_n(sampled.begin(),
                    std::min(sampled.size(), network.species_count()),
                    values.begin());
        states.push_back(std::move(values));
      }
      double sink = 0.0;
      std::size_t evaluations = 0;
      const double seconds = timed("crn.propensity", [&] {
        for (int pass = 0; pass < 20; ++pass) {
          for (const auto& state : states) {
            for (std::size_t r = 0; r < network.reaction_count(); ++r) {
              sink += network.propensity(r, state);
              ++evaluations;
            }
          }
        }
      });
      if (!(sink >= 0.0)) report_.fail("negative propensity");
      set("crn.propensity_ns", seconds * 1e9 / static_cast<double>(evaluations));
    }

    // Algorithm 1 and the verdict on the digitized planes.
    const glva::core::LogicAnalyzer analyzer(glva::core::AnalyzerConfig{});
    std::vector<double> analyze;
    glva::core::ExtractionResult extraction;
    for (int r = 0; r < 20; ++r) {
      analyze.push_back(timed("core.analyze", [&] {
        extraction = analyzer.analyze_packed(*data, spec_.input_ids,
                                             spec_.output_id);
      }));
    }
    const double analyze_s = median(analyze);
    set("core.analyze_ns_per_sample", analyze_s * 1e9 / samples);
    std::vector<double> verify;
    bool matches = false;
    for (int r = 0; r < 200; ++r) {
      verify.push_back(timed("core.verify", [&] {
        matches = glva::core::verify(extraction, spec_.expected).matches;
      }));
    }
    const double verify_s = median(verify);
    set("core.verify_us", verify_s * 1e6);
    report_.count(matches, "ledger verify_deep verdict is not MATCH");

    // app::execute on the same seed, minus the layer calls it makes.
    // app::execute minus the layer calls it makes: compile, the digitize
    // sweep, Algorithm 1 and the verdict. What remains is request parsing,
    // catalog lookup and rendering, plus the sweeps' run-to-run noise.
    std::vector<double> overhead;
    for (int r = 0; r < kRepeats; ++r) {
      overhead.push_back(execute[r] - compile_s - digitize_sweep[r] -
                         analyze_s - verify_s);
    }
    set("app.overhead_ms", median(overhead) * 1e3);
  }

  // exec + store(spill write): ensemble_spill's operation.
  void ensemble() {
    ++op_;
    const ScopedSpan stage(recorder_, "ledger.ensemble_spill", op_);
    const std::uint64_t seed = derive(options_.seed, 701);
    const fs::path dir = fs::path(options_.work_dir) / "ledger-spill";
    fs::create_directories(dir);
    const glva::core::ExperimentConfig defaults;

    // One replicate's sweep into a SpillSink: time inside the sink,
    // finish() (tail flush, writer join, index) included.
    std::vector<double> spill;
    const glva::exec::SeedSequence seeds(seed);
    for (std::size_t r = 0; r < 16; ++r) {
      auto lab = make_lab(spec_, seeds.seed_for(r));
      static_cast<void>(lab.network());
      glva::store::SpillSink::Options spill_options;
      spill_options.seed = seeds.seed_for(r);
      std::string name = std::to_string(r);
      name += ".glvt";
      glva::store::SpillSink sink((dir / name).string(), spill_options);
      TimedSink sink_timed(sink, recorder_, "store.spill_write", op_);
      timed("sim.sweep_replicate", [&] {
        static_cast<void>(lab.run_combination_sweep_into(
            defaults.total_time, high_level(), sink_timed));
      });
      spill.push_back(sink_timed.seconds());
    }
    set("store.spill_write_s", median(spill));

    const std::size_t workers = glva::exec::ThreadPool::hardware_threads();
    glva::exec::ThreadPool pool(workers);
    const glva::exec::ParallelRunner runner(pool);
    std::optional<double> tasks, bytes;
    std::string first;
    for (int pass = 0; pass < 2; ++pass) {
      const Snapshot before = glva::obs::snapshot();
      const double cpu_before = process_cpu_seconds();
      glva::core::EnsembleResult result;
      const double wall = timed("core.run_ensemble", [&] {
        result = glva::core::run_ensemble(
            spec_, ensemble_config(seed, glva::store::SinkKind::kSpill, dir.string()),
            kReplicates, runner);
      });
      const double cpu = process_cpu_seconds() - cpu_before;
      const Snapshot after = glva::obs::snapshot();
      const ObsDelta delta(before, after);
      report_.count(result.majority_matches,
                    "ledger ensemble majority vote is not MATCH");
      if (pass == 0) {
        first = fingerprint(result);
        tasks = delta.counter("exec.pool.tasks");
        bytes = delta.counter("store.spill.bytes_written");
        const double samples =
            static_cast<double>(kReplicates) * (defaults.total_time + 1);
        set("exec.tasks", tasks);
        set("exec.task_us_p50", delta.histogram_bound("exec.pool.task_us", 50));
        set("exec.task_us_p99", delta.histogram_bound("exec.pool.task_us", 99));
        set("exec.reduce_stall_us", delta.counter("exec.reduce.stall_us"));
        set("exec.cpu_util", cpu / (wall * static_cast<double>(workers)));
        set("store.spill_bytes_per_sample",
            bytes ? std::optional<double>(*bytes / samples) : std::nullopt);
        set("store.flush_wait_us_p99",
            delta.histogram_bound("spill.flush_wait_us", 99));
      } else {
        report_.count(fingerprint(result) == first,
                      "ledger ensemble did not repeat at a fixed seed");
        expect_repeat("exec.pool.tasks", tasks, delta.counter("exec.pool.tasks"));
        expect_repeat("store.spill.bytes_written", bytes,
                      delta.counter("store.spill.bytes_written"));
      }
    }
  }

  // store(read) + core(ADC) + props: reanalyze_stored's operation.
  void stored() {
    ++op_;
    const ScopedSpan stage(recorder_, "ledger.reanalyze_stored", op_);
    const fs::path dir = fs::path(options_.work_dir) / "ledger-stored";
    fs::create_directories(dir);
    stored_file_ = stored_path(dir.string(), 0);
    timed("store.write_stored", [&] {
      write_stored(spec_, stored_file_seed(options_.seed, 0), stored_file_);
    });

    std::vector<double> open, replay, adc, monitor;
    std::optional<glva::core::PackedDigitalData> data;
    for (int r = 0; r < 5; ++r) {
      std::unique_ptr<glva::store::SpillReader> reader;
      open.push_back(timed("store.open", [&] {
        reader = std::make_unique<glva::store::SpillReader>(stored_file_);
      }));
      DiscardSink discard;
      TimedSink discard_timed(discard, recorder_, "store.discard", op_);
      replay.push_back(
          timed("store.replay", [&] { reader->replay(discard_timed); }) -
          discard_timed.seconds());
      glva::store::DigitizingSink sink(tracked(spec_),
                                       glva::core::ExperimentConfig{}.threshold);
      TimedSink sink_timed(sink, recorder_, "core.adc", op_);
      timed("store.replay", [&] { reader->replay(sink_timed); });
      adc.push_back(sink_timed.seconds());
      data = glva::core::take_digitized(sink, spec_.input_ids.size());
    }
    set("store.open_ms", median(open) * 1e3);
    set("store.replay_s", median(replay));
    set("core.adc_s", median(adc));

    const auto property = glva::props::parse_property(kGoldenProperty);
    glva::props::PackedNamedPlanes planes;
    planes.names = tracked(spec_);
    for (const auto& input : data->inputs) planes.planes.push_back(&input);
    planes.planes.push_back(&data->output);
    std::optional<std::size_t> satisfied;
    for (int r = 0; r < 10; ++r) {
      std::size_t count = 0;
      monitor.push_back(timed("props.monitor", [&] {
        count = glva::props::evaluate_packed(*property, planes).popcount();
      }));
      report_.count(!satisfied || *satisfied == count,
                    "ledger monitor verdict changed between passes");
      satisfied = count;
    }
    set("props.monitor_ns_per_sample",
        median(monitor) * 1e9 / static_cast<double>(data->sample_count()));
  }

  // serve: serve_mixed's operation at the reference rate, then the ladder.
  void serve() {
    ++op_;
    const std::size_t stage_id = recorder_.begin("ledger.serve_mixed", op_);
    const std::uint64_t seed = derive(options_.seed, 702);
    const std::string socket = (fs::path(options_.work_dir) / "l.sock").string();
    const auto counts = {"serve.requests.executed", "serve.requests.coalesced",
                         "serve.admission.rejected", "serve.cache.hits",
                         "serve.requests.received"};
    std::map<std::string, std::optional<double>> first;
    for (int pass = 0; pass < 2; ++pass) {
      RequestSet requests = hot_set(seed);
      const ServeFixture fixture(socket, requests);
      std::vector<std::size_t> arrivals;
      extend_mix(requests, arrivals, static_cast<std::size_t>(kReferenceRate * 2),
                 seed, 1);
      const Snapshot before = glva::obs::snapshot();
      std::optional<double> depth_max;
      std::jthread sampler([&](std::stop_token stop) {
        while (!stop.stop_requested()) {
          const auto depth =
              gauge(glva::obs::snapshot(), "serve.admission.queue_depth");
          if (depth) depth_max = std::max(depth_max.value_or(0.0), *depth);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
      const LoadResult load = run_open_loop(socket, requests, arrivals,
                                            kReferenceRate);
      sampler.request_stop();
      sampler.join();
      const Snapshot after = glva::obs::snapshot();
      const ObsDelta delta(before, after);
      check_load(requests, load, stage_id);
      if (pass == 0) {
        for (const char* name : counts) first[name] = delta.counter(name);
        const ServeBreakdown b = breakdown(load);
        print(b);
        set("serve.hit_us_p50", b.hit_us_p50.value);
        set("serve.hit_us_p99", b.hit_us_p99.value);
        set("serve.cold_ms_p50", b.cold_ms_p50.value);
        set("serve.cold_ms_p99", b.cold_ms_p99.value);
        set("serve.gen_late_ms_p99", b.late_ms_p99.value);
        const auto hits = delta.counter("serve.cache.hits");
        const auto received = delta.counter("serve.requests.received");
        set("serve.hit_ratio", hits && received && *received > 0
                                   ? std::optional<double>(*hits / *received)
                                   : std::nullopt);
        set("serve.executed", delta.counter("serve.requests.executed"));
        set("serve.coalesced", delta.counter("serve.requests.coalesced"));
        set("serve.rejected", delta.counter("serve.admission.rejected"));
        set("serve.queue_depth_max", depth_max);
      } else {
        for (const char* name : counts) {
          expect_repeat(name, first[name], delta.counter(name));
        }
      }
    }

    // The rate ladder: the highest rate whose p99 (from due time) meets
    // the limit and whose last request is answered within it.
    RequestSet requests = hot_set(seed);
    const ServeFixture fixture(socket, requests);
    double max_ok = 0.0;
    std::uint64_t step = 0;
    for (const double rate : kLadderRates) {
      std::vector<std::size_t> arrivals;
      extend_mix(requests, arrivals, static_cast<std::size_t>(rate), seed,
                 10 + step++);
      const LoadResult load = run_open_loop(socket, requests, arrivals, rate);
      check_load(requests, load, stage_id);
      const ServeBreakdown b = breakdown(load);
      const Outcome& last = load.outcomes.back();
      const double drain_ms = (last.done - last.due) * 1e3;
      const bool ok = load.errors.empty() &&
                      b.all_ms_p99.n == load.outcomes.size() &&
                      b.all_ms_p99.value <= kLatencyLimitMs &&
                      drain_ms <= kLatencyLimitMs;
      std::printf("ladder %6.0f/s: %s, last reply %.3g ms after due -> %s\n",
                  rate, describe(b.all_ms_p99, "ms").c_str(), drain_ms,
                  ok ? "meets the limit" : "over the limit");
      if (!ok) break;
      max_ok = rate;
    }
    set("serve.max_ok_rps", max_ok);
    recorder_.end(stage_id);
  }

  /// Records one span per request and counts each request's correctness
  /// (transport ok, consistent bodies, equal to app::execute).
  void check_load(const RequestSet& requests, const LoadResult& load,
                  std::size_t parent) {
    for (const std::string& error : load.errors) report_.fail(error);
    const std::vector<char> bad = bad_requests(requests, load);
    const auto at = [&](double seconds) {
      return load.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    };
    for (std::size_t k = 0; k < load.outcomes.size(); ++k) {
      const Outcome& o = load.outcomes[k];
      report_.count(o.ok && !bad[o.request],
                    "ledger request " + std::to_string(k) +
                        " failed or differs from app::execute");
      if (o.ok) {
        recorder_.record(o.cached ? "serve.hit" : "serve.executed", op_,
                         parent, at(o.due), at(o.done));
      }
    }
  }

  /// Tracing overhead: the workload's own operation, alternately bare and
  /// wrapped in a span with obs snapshots at its boundaries.
  void overhead() {
    ++op_;
    const ScopedSpan stage(recorder_, "ledger.overhead", op_);
    std::function<void(std::size_t)> operation;
    std::unique_ptr<glva::exec::ThreadPool> pool;
    std::unique_ptr<glva::exec::ParallelRunner> runner;
    std::unique_ptr<ServeFixture> fixture;
    std::unique_ptr<glva::serve::Client> client;
    const auto property = glva::props::parse_property(kGoldenProperty);
    const fs::path dir = fs::path(options_.work_dir) / "overhead";
    fs::create_directories(dir);
    const std::string& workload = options_.workload;
    if (workload == "verify_deep") {
      operation = [&](std::size_t i) {
        const auto response = glva::app::execute(
            deep_request(deep_seed(options_.seed, i % kDeepSeeds)));
        report_.count(response.exit_code == 0, "overhead verify not MATCH");
      };
    } else if (workload == "ensemble_spill") {
      pool = std::make_unique<glva::exec::ThreadPool>(
          glva::exec::ThreadPool::hardware_threads());
      runner = std::make_unique<glva::exec::ParallelRunner>(*pool);
      operation = [&](std::size_t i) {
        const auto result = glva::core::run_ensemble(
            spec_,
            ensemble_config(ensemble_seed(options_.seed, i % kEnsembleSeeds),
                            glva::store::SinkKind::kSpill, dir.string()),
            kReplicates, *runner);
        report_.count(result.majority_matches, "overhead ensemble not MATCH");
      };
    } else if (workload == "reanalyze_stored") {
      operation = [&](std::size_t i) {
        const Reanalysis got = reanalyze_file(
            spec_, stored_file_, kThresholds[i % std::size(kThresholds)],
            *property);
        report_.count(got.samples > 0, "overhead reanalysis read no samples");
      };
    } else {
      const RequestSet hot = hot_set(options_.seed);
      fixture = std::make_unique<ServeFixture>(
          (dir / "o.sock").string(), hot);
      client = std::make_unique<glva::serve::Client>(
          glva::serve::Client::connect_unix(fixture->socket_path()));
      operation = [&, hot](std::size_t i) {
        const auto reply = client->round_trip(hot.payloads[i % hot.size()]);
        const auto* ok = reply.find("ok");
        report_.count(ok != nullptr && ok->boolean, "overhead request failed");
      };
    }

    std::vector<double> bare, traced;
    const Clock::time_point window = Clock::now();
    for (std::size_t i = 0;
         i < 6 || seconds_since(window) < options_.seconds / 2; i += 2) {
      Clock::time_point start = Clock::now();
      operation(i);
      bare.push_back(seconds_since(start));
      start = Clock::now();
      {
        const ScopedSpan span(recorder_, "op." + workload, op_);
        const Snapshot before = glva::obs::snapshot();
        operation(i);
        const Snapshot after = glva::obs::snapshot();
        static_cast<void>(ObsDelta(before, after).counter("sim.ssa.steps"));
      }
      traced.push_back(seconds_since(start));
    }
    std::cout << "overhead: " << bare.size() << " bare and " << traced.size()
              << " traced " << workload << " operations, medians "
              << median(bare) * 1e3 << " ms and " << median(traced) * 1e3
              << " ms\n";
    // The instrumentation alone, on an empty operation: the floor under
    // the difference above, which the operations' own noise can swamp.
    const Clock::time_point floor_start = Clock::now();
    constexpr int kEmpty = 1000;
    for (int i = 0; i < kEmpty; ++i) {
      const ScopedSpan span(recorder_, "op.empty", op_);
      const Snapshot before = glva::obs::snapshot();
      const Snapshot after = glva::obs::snapshot();
      static_cast<void>(ObsDelta(before, after).counter("sim.ssa.steps"));
    }
    std::cout << "instrumentation alone: "
              << seconds_since(floor_start) * 1e6 / kEmpty
              << " us per operation\n";
    set("trace.overhead_us", (median(traced) - median(bare)) * 1e6);
  }

  const Options& options_;
  Report& report_;
  const glva::circuits::CircuitSpec spec_;
  SpanRecorder recorder_;
  std::uint64_t op_ = 0;
  std::string stored_file_;
  std::map<std::string, std::optional<double>> values_;
};

}  // namespace

Report run_traced(const Options& options) {
  Report report;
  Ledger ledger(options, report);
  const Clock::time_point start = Clock::now();
  ledger.run();
  std::cout << "traced run wall " << seconds_since(start) << " s\n";
  ledger.print_self_times();
  ledger.write_spans(fs::path(options.work_dir).parent_path() /
                     ("spans-" + options.workload + ".json"));
  ledger.emit();
  return report;
}

}  // namespace perfbench
