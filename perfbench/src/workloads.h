#pragma once

// The four workloads and the pieces the traced run shares with them.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "app/request.h"
#include "circuits/circuit_spec.h"
#include "common.h"
#include "core/ensemble.h"
#include "core/experiment.h"
#include "props/property.h"

namespace perfbench {

// verify_deep: the paper's time to verdict on a 10^6-sample realization.
inline constexpr double kDeepTotalTime = 1e6;
inline constexpr std::size_t kDeepSeeds = 2;  ///< op seeds, cycled
[[nodiscard]] std::uint64_t deep_seed(std::uint64_t seed, std::size_t k);
/// `glva verify 0x0B --total-time 1e6 --sink digitize --seed S
/// --no-timings`, built through the CLI/daemon request parser.
[[nodiscard]] glva::app::Request deep_request(std::uint64_t op_seed);

// ensemble_spill: 64 paper-default replicates spilled to .glvt files.
inline constexpr std::size_t kReplicates = 64;
inline constexpr std::size_t kEnsembleSeeds = 4;
[[nodiscard]] std::uint64_t ensemble_seed(std::uint64_t seed, std::size_t k);
[[nodiscard]] glva::core::ExperimentConfig ensemble_config(
    std::uint64_t op_seed, glva::store::SinkKind sink,
    const std::string& spill_dir);
/// Every number of an EnsembleResult that a report or verdict reads,
/// doubles in exact hex form.
[[nodiscard]] std::string fingerprint(const glva::core::EnsembleResult& e);

// reanalyze_stored: replay stored 10^6-sample analog .glvt files.
inline constexpr std::size_t kStoredFiles = 2;
inline constexpr double kThresholds[] = {3.0, 15.0, 40.0};
/// Base seed of stored file j; the file itself holds replicate 0 of that
/// base (exec::derive_seed(base, 0)), so run_check with one replicate
/// simulates exactly the stored realization.
[[nodiscard]] std::uint64_t stored_base_seed(std::uint64_t seed, std::size_t j);
[[nodiscard]] std::uint64_t stored_file_seed(std::uint64_t seed, std::size_t j);
[[nodiscard]] std::string stored_path(const std::string& dir, std::size_t j);
/// Sweeps the circuit into a SpillSink at `path` (10^6 samples).
void write_stored(const glva::circuits::CircuitSpec& spec,
                  std::uint64_t file_seed, const std::string& path);
/// Extraction text as the CLI prints it (table, expression, fitness).
[[nodiscard]] std::string render(const glva::core::ExtractionResult& e);

/// What one reanalysis yields: the extraction and the golden property's
/// satisfied-sample count.
struct Reanalysis {
  glva::core::ExtractionResult extraction;
  std::size_t satisfied = 0;
  std::size_t samples = 0;
};

/// One reanalysis (a reanalyze_stored operation runs one per (file,
/// threshold) pair): open the file, replay it into a
/// DigitizingSink at `threshold`, run Algorithm 1 on the planes, and
/// monitor `property` over them.
[[nodiscard]] Reanalysis reanalyze_file(const glva::circuits::CircuitSpec& spec,
                                        const std::string& path,
                                        double threshold,
                                        const glva::props::Property& property);

/// Runs the untraced workload named in `options` and returns its report
/// with every end-to-end metric.
[[nodiscard]] Report run_workload(const Options& options);

/// The traced run: every per-layer metric, span self times, and the
/// tracing overhead of `options.workload`'s operation.
[[nodiscard]] Report run_traced(const Options& options);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
