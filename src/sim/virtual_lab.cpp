#include "sim/virtual_lab.h"

#include "sbml/validate.h"
#include "store/memory_sink.h"
#include "util/errors.h"

namespace glva::sim {

VirtualLab::VirtualLab(sbml::Model model, LabOptions options)
    : model_(std::move(model)), options_(options) {
  sbml::validate_or_throw(model_);
}

void VirtualLab::set_options(const LabOptions& options) { options_ = options; }

void VirtualLab::declare_inputs(const std::vector<std::string>& input_ids) {
  for (const auto& id : input_ids) {
    sbml::Species* species = model_.find_species(id);
    if (species == nullptr) {
      throw InvalidArgument("declare_inputs: unknown species '" + id + "'");
    }
    species->boundary_condition = true;
  }
  input_ids_ = input_ids;
  network_.reset();  // boundary flags changed; recompile lazily
}

const crn::ReactionNetwork& VirtualLab::network() {
  if (!network_) network_ = crn::ReactionNetwork::compile(model_);
  return *network_;
}

Trace VirtualLab::run(const InputSchedule& schedule, double duration) {
  store::MemorySink sink;
  run_into(schedule, duration, sink);
  return sink.take();
}

void VirtualLab::run_into(const InputSchedule& schedule, double duration,
                          store::TraceSink& sink) {
  SimulationOptions sim_options;
  sim_options.sampling_period = options_.sampling_period;
  sim_options.seed = options_.seed;
  DirectMethod().run_into(network(), schedule, duration, sim_options, sink);
}

SweepResult VirtualLab::run_combination_sweep(double total_time,
                                              double high_level) {
  if (input_ids_.empty()) {
    throw InvalidArgument(
        "run_combination_sweep: declare_inputs() must be called first");
  }
  InputSchedule schedule =
      InputSchedule::combination_sweep(input_ids_, total_time, high_level);
  Trace trace = run(schedule, total_time);
  return SweepResult{std::move(trace), std::move(schedule)};
}

InputSchedule VirtualLab::run_combination_sweep_into(double total_time,
                                                     double high_level,
                                                     store::TraceSink& sink) {
  if (input_ids_.empty()) {
    throw InvalidArgument(
        "run_combination_sweep_into: declare_inputs() must be called first");
  }
  InputSchedule schedule =
      InputSchedule::combination_sweep(input_ids_, total_time, high_level);
  run_into(schedule, total_time, sink);
  return schedule;
}

Trace VirtualLab::run_constant(const std::vector<double>& levels,
                               double duration) {
  return run(InputSchedule::constant(input_ids_, levels), duration);
}

}  // namespace glva::sim
