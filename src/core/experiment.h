#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuits/circuit_spec.h"
#include "exec/parallel_runner.h"
#include "core/logic_analyzer.h"
#include "core/verifier.h"
#include "sim/virtual_lab.h"
#include "store/trace_sink.h"

/// The end-to-end experiment of Section III: simulate a circuit through a
/// full input-combination sweep, extract its logic, and verify it against
/// the intended function.
namespace glva::core {

/// Experiment parameters, defaulted to the paper's setup: 10,000 time
/// units total, threshold 15 molecules, inputs applied at the threshold
/// level, up to 25% output variation, 1-time-unit sampling.
struct ExperimentConfig {
  double total_time = 10000.0;  ///< sweep duration, time units (all 2^N phases)
  double threshold = 15.0;      ///< ThVAL, molecules; must be > 0
  double fov_ud = 0.25;         ///< FOV_UD, fraction in (0, 1]
  /// Input high level, molecules; < 0 means "apply inputs at the threshold
  /// value" (the paper's methodology).
  double input_high_level = -1.0;
  double sampling_period = 1.0;  ///< trace grid, time units per sample
  std::uint64_t seed = 1;        ///< RNG seed; equal seeds reproduce runs

  /// Where the sweep's samples land (see store::SinkKind and
  /// docs/STORAGE.md): kMemory materializes the trace (reference path),
  /// kSpill streams it to a chunked .glvt file under `spill_dir` and
  /// re-materializes for analysis, kDigitize fuses the ADC into the
  /// sampler so no double trace ever exists (ExperimentResult::sweep.trace
  /// comes back empty). All three yield bit-identical analysis results for
  /// the same seed, at every input count.
  store::SinkKind sink = store::SinkKind::kMemory;
  /// Directory for .glvt spill files; required when sink == kSpill.
  /// Optional with kDigitize: when set, the run also streams its packed
  /// planes into a bit-plane .glvt artifact (v2 kBits) that
  /// core::load_digitized can replay into analyze_packed with no
  /// re-simulation and no re-thresholding.
  std::string spill_dir;
  /// Spill filename stem override ("<stem>.glvt"); empty derives
  /// "<circuit>-s<seed>". Batch runners set it to keep per-job files
  /// distinct (e.g. per replicate, per threshold point).
  std::string spill_stem;

  [[nodiscard]] double high_level() const noexcept {
    return input_high_level > 0.0 ? input_high_level : threshold;
  }
};

/// Everything one experiment produces.
struct ExperimentResult {
  std::string circuit_name;
  ExperimentConfig config;
  sim::SweepResult sweep;          ///< trace + schedule
  ExtractionResult extraction;     ///< Algorithm 1 output
  VerificationReport verification; ///< vs the circuit's intended function
  double simulate_seconds = 0.0;   ///< wall time of the SSA sweep
  double analyze_seconds = 0.0;    ///< wall time of Algorithm 1
};

/// Run the full pipeline on a circuit: sweep all 2^N input combinations
/// (total_time split evenly across phases), extract the logic, and verify
/// it against spec.expected. Throws glva::InvalidArgument for invalid
/// analyzer parameters (including a spill sink without a spill_dir),
/// glva::ValidationError for unsimulatable models, and glva::StorageError
/// when a spill file cannot be written or read back.
[[nodiscard]] ExperimentResult run_experiment(const circuits::CircuitSpec& spec,
                                              const ExperimentConfig& config);

/// The spill filename stem run_experiment uses for `config` (the
/// spill_stem override, or "<circuit>-s<seed>"); the file is
/// "<spill_dir>/<stem>.glvt".
[[nodiscard]] std::string spill_stem_for(const circuits::CircuitSpec& spec,
                                         const ExperimentConfig& config);

/// Repository-wide batch runner (the Table 1 workload): run the experiment
/// on every spec, one exec/ job per circuit, across up to `jobs` worker
/// threads (0 = one per hardware thread). Each circuit's RNG stream is
/// derived from (base_config.seed, circuit index) via exec::SeedSequence,
/// so circuits draw independent sample paths instead of replaying the same
/// random numbers against different models. Results come back in spec
/// order and are bit-identical for every jobs value; a failing circuit
/// rethrows from the lowest failed index.
[[nodiscard]] std::vector<ExperimentResult> run_batch(
    const std::vector<circuits::CircuitSpec>& specs,
    const ExperimentConfig& base_config, std::size_t jobs = 1);

/// Tap on a batch's ordered commit stream: invoked once per circuit, in
/// spec order, on the calling thread, with the result just before it is
/// released (the batch analogue of core::ReplicateObserver).
using BatchObserver =
    std::function<void(std::size_t index, ExperimentResult&& result)>;

/// Streaming form of run_batch: results are delivered to `observer`
/// through exec::ParallelRunner::run_reduce's ordered commit stream and
/// then destroyed — resident memory is bounded by the runner's in-flight
/// window, not the catalog size. The materializing overload above is this
/// function plus a collecting observer (bit-identical). `runner` may
/// borrow a persistent pool (daemon mode) or own per-call pools.
void run_batch(const std::vector<circuits::CircuitSpec>& specs,
               const ExperimentConfig& base_config,
               const exec::ParallelRunner& runner,
               const BatchObserver& observer);

/// Re-analyze an existing sweep under a different analyzer configuration
/// (used by the threshold sweep so each threshold re-reads the same trace
/// family; note the paper re-applies inputs at each threshold, so a full
/// re-simulation variant exists too — see threshold_sweep.h).
[[nodiscard]] ExperimentResult reanalyze(const circuits::CircuitSpec& spec,
                                         const ExperimentConfig& config,
                                         const sim::SweepResult& sweep);

}  // namespace glva::core
