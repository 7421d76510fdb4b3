#pragma once

// Deterministic mean-field test oracle for the SSA: integrates
// d x_s / dt = Σ_r ν_{s,r} · a_r(x) with classic fourth-order Runge–Kutta
// over the same compiled network the simulator uses.
//
// The paper motivates *not* using ODEs for genetic circuits (molecule
// counts are too small for the continuum limit). The tests use this
// integrator to show exactly that: SSA means converge to the ODE while
// single SSA runs fluctuate across the logic threshold.

#include <algorithm>
#include <vector>

#include "crn/network.h"
#include "sim/input_schedule.h"
#include "sim/trace.h"
#include "util/errors.h"

namespace glva::oracle {

class OdeRk4 {
public:
  /// `step` is the fixed RK4 step size in simulation time units.
  explicit OdeRk4(double step = 0.05) : step_(step) {}

  /// Integrate over [0, duration] with the schedule's clamps applied at
  /// phase boundaries, sampling every `sampling_period`.
  [[nodiscard]] sim::Trace run(const crn::ReactionNetwork& network,
                               const sim::InputSchedule& schedule,
                               double duration,
                               double sampling_period = 1.0) const {
    if (duration <= 0.0) throw InvalidArgument("ODE duration must be positive");
    if (step_ <= 0.0) throw InvalidArgument("ODE step must be positive");

    std::vector<double> values = network.initial_values();
    const std::size_t n = network.species_count();

    std::vector<std::size_t> input_indices;
    for (const auto& id : schedule.input_ids()) {
      input_indices.push_back(network.species_index(id));
    }

    sim::Trace trace(network.species_names());
    std::vector<double> k1(n), k2(n), k3(n), k4(n);
    std::vector<double> scratch(values.size());

    const auto rk4_step = [&](double h) {
      derivatives(network, values, k1);
      scratch = values;
      for (std::size_t s = 0; s < n; ++s) scratch[s] = values[s] + 0.5 * h * k1[s];
      derivatives(network, scratch, k2);
      for (std::size_t s = 0; s < n; ++s) scratch[s] = values[s] + 0.5 * h * k2[s];
      derivatives(network, scratch, k3);
      for (std::size_t s = 0; s < n; ++s) scratch[s] = values[s] + h * k3[s];
      derivatives(network, scratch, k4);
      for (std::size_t s = 0; s < n; ++s) {
        values[s] += h / 6.0 * (k1[s] + 2.0 * k2[s] + 2.0 * k3[s] + k4[s]);
        if (values[s] < 0.0) values[s] = 0.0;  // amounts stay physical
      }
    };

    double next_sample = 0.0;
    double t = 0.0;
    const auto& phases = schedule.phases();
    std::size_t phase = 0;
    while (t < duration - 1e-12) {
      double t_next = duration;
      if (!phases.empty()) {
        for (std::size_t i = 0; i < input_indices.size(); ++i) {
          values[input_indices[i]] = phases[phase].levels[i];
        }
        if (phase + 1 < phases.size()) {
          t_next = std::min(duration, phases[phase + 1].start_time);
        }
      }
      while (t < t_next - 1e-12) {
        while (next_sample <= t + 1e-12 && next_sample <= duration + 1e-12) {
          trace.append(next_sample, values);
          next_sample += sampling_period;
        }
        const double h = std::min(step_, t_next - t);
        rk4_step(h);
        t += h;
      }
      t = t_next;
      ++phase;
    }
    while (next_sample <= duration + sampling_period * 1e-9) {
      trace.append(next_sample, values);
      next_sample += sampling_period;
    }
    return trace;
  }

private:
  /// Rate vector over species slots only; constants are untouched.
  static void derivatives(const crn::ReactionNetwork& network,
                          const std::vector<double>& values,
                          std::vector<double>& out) {
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t r = 0; r < network.reaction_count(); ++r) {
      // The mean-field rate ignores integer requirements but keeps laws
      // evaluated at the continuous state; clamp at zero like propensities.
      const double a =
          std::max(0.0, network.reaction(r).propensity.evaluate(values));
      for (const auto& change : network.reaction(r).changes) {
        out[change.species] += change.delta * a;
      }
    }
  }

  double step_;
};

}  // namespace glva::oracle
