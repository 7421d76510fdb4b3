#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crn/network.h"
#include "sbml/model.h"
#include "sim/input_schedule.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "store/trace_sink.h"

/// The virtual-laboratory runtime: GLVA's substitute for D-VASim
/// [Baig & Madsen, Bioinformatics 2016]. It owns an SBML model, lets the
/// user declare which species are externally triggered inputs, and runs
/// stimulus programs through Gillespie's direct method, logging all species
/// traces — exactly the workflow the DATE'17 methodology drives through
/// D-VASim's GUI.
namespace glva::sim {

/// Lab-wide settings.
struct LabOptions {
  double sampling_period = 1.0;  ///< trace grid, time units
  std::uint64_t seed = 1;        ///< RNG seed for reproducible runs
};

/// A completed input-combination sweep: the stitched trace plus the
/// schedule that produced it (needed by the analyzer to label samples).
struct SweepResult {
  Trace trace;
  InputSchedule schedule;
};

class VirtualLab {
public:
  /// Load a model into the lab. The model is validated on load; throws
  /// glva::ValidationError for unsimulatable models.
  explicit VirtualLab(sbml::Model model, LabOptions options = {});

  [[nodiscard]] const sbml::Model& model() const noexcept { return model_; }
  [[nodiscard]] const LabOptions& options() const noexcept { return options_; }
  void set_options(const LabOptions& options);

  /// Declare the externally clamped input species, in MSB-first order for
  /// combination sweeps. Marks them as boundary-condition species (the SBML
  /// idiom for externally controlled amounts). Throws when a species id is
  /// unknown.
  void declare_inputs(const std::vector<std::string>& input_ids);
  [[nodiscard]] const std::vector<std::string>& input_ids() const noexcept {
    return input_ids_;
  }

  /// The compiled network (compiled lazily after input declaration).
  [[nodiscard]] const crn::ReactionNetwork& network();

  /// Run an arbitrary stimulus program for `duration` time units.
  [[nodiscard]] Trace run(const InputSchedule& schedule, double duration);

  /// Streaming twin of `run`: the same simulation, sample for sample, but
  /// every grid row goes to `sink` (a store::MemorySink reproduces `run`
  /// bit for bit; a SpillSink or DigitizingSink bounds resident memory
  /// for 10^7-sample programs).
  void run_into(const InputSchedule& schedule, double duration,
                store::TraceSink& sink);

  /// The paper's experiment: sweep all 2^N input combinations in ascending
  /// binary order over `total_time` (each combination holds
  /// total_time / 2^N time units), applying inputs at `high_level`
  /// molecules — the paper applies inputs at the threshold level.
  [[nodiscard]] SweepResult run_combination_sweep(double total_time,
                                                  double high_level);

  /// Streaming twin of `run_combination_sweep`: stream the sweep into
  /// `sink`, returning the schedule (the analyzer still needs it to label
  /// samples; the samples themselves live wherever the sink put them).
  [[nodiscard]] InputSchedule run_combination_sweep_into(
      double total_time, double high_level, store::TraceSink& sink);

  /// Convenience single-step experiment used by the timing estimators: hold
  /// `levels` for `duration` and return the trace.
  [[nodiscard]] Trace run_constant(const std::vector<double>& levels,
                                   double duration);

private:
  sbml::Model model_;
  LabOptions options_;
  std::vector<std::string> input_ids_;
  std::optional<crn::ReactionNetwork> network_;  // invalidated on input change
};

}  // namespace glva::sim
