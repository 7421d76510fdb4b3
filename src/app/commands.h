#pragma once

#include <ostream>
#include <string>
#include <vector>

/// The `glva` command-line tool: the D-VASim-style push-button workflow as
/// subcommands. Implemented as a library so the test suite can drive it
/// with argument vectors and captured streams.
///
/// Subcommands:
///   list                                  catalog circuits + metadata
///   show <circuit>                        structure, truth table, model stats
///   export <circuit> [--sbml p] [--sbol p] [--two-stage]
///   analyze <model.sbml> --inputs A,B --output GFP [analysis options]
///   verify <circuit> [analysis options]   catalog circuit vs intended logic
///   ensemble <circuit> [--replicates n]   replicate ensemble with
///                                         majority-vote logic + FOV stats
///                                         + 95% CIs (--ci-csv <path>)
///   sweep <circuit> [--thresholds 3,15,40] threshold-robustness sweep
///                                         (Figure 5; --redigitize ablation)
///   estimate <circuit> [--probe-level n]  threshold + propagation delay
///   serve [--listen h:p] [--unix path]    long-lived analysis daemon with
///                                         admission control + result cache
///                                         (docs/SERVE.md)
///   version                               build report
///
/// Shared analysis options: --threshold, --fov-ud, --total-time,
/// --sampling-period, --seed, --sink (mem|spill|digitize),
/// --spill-dir <dir>, --csv <path>, --no-timings. Numeric options must be
/// finite. Every run simulates with Gillespie's direct method, the
/// paper's exact SSA. The sink selects trace storage (in-memory trace,
/// chunked .glvt spill files, or fused sampler→ADC digitization — see
/// docs/STORAGE.md); results are bit-identical for every sink.
///
/// The analysis subcommands (analyze/verify/ensemble/sweep) parse into an
/// app::Request and run through app::execute — the same path the daemon
/// serves — so `glva serve` responses are byte-identical to CLI output.
///
/// The global `--jobs N` flag (accepted anywhere on the command line)
/// selects how many worker threads parallel workloads may use; 0 means one
/// per hardware thread. Results are bit-identical for every N.
namespace glva::app {

/// Run one invocation. `args` excludes the program name. Output goes to
/// `out`, diagnostics to `err`. Returns a process exit code (0 success,
/// 1 verification failure, 2 usage error).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// argv adapter for main().
int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

}  // namespace glva::app
