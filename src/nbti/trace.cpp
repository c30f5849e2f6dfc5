#include "nbti/trace.h"

#include <stdexcept>

namespace nbtisim::nbti {

EquivalentCycle equivalent_cycle_from_trace(
    const RdParams& p, std::span<const StressInterval> trace, double temp_ref) {
  if (trace.empty()) {
    throw std::invalid_argument("equivalent_cycle_from_trace: empty trace");
  }
  EquivalentCycle eq;
  for (const StressInterval& iv : trace) {
    if (iv.duration <= 0.0) {
      throw std::invalid_argument(
          "equivalent_cycle_from_trace: non-positive interval duration");
    }
    if (iv.stress_prob < 0.0 || iv.stress_prob > 1.0) {
      throw std::invalid_argument(
          "equivalent_cycle_from_trace: stress_prob outside [0,1]");
    }
    const double d_ratio = diffusion_ratio(p, iv.temperature, temp_ref);
    eq.stress_time += iv.stress_prob * iv.duration * d_ratio;
    eq.recovery_time += (1.0 - iv.stress_prob) * iv.duration;
  }
  return eq;
}

double trace_delta_vth(const RdParams& p, std::span<const StressInterval> trace,
                       double temp_ref, double total_time, double vgs,
                       double vth0) {
  if (total_time < 0.0) {
    throw std::invalid_argument("trace_delta_vth: negative total time");
  }
  if (total_time == 0.0) return 0.0;
  const EquivalentCycle eq = equivalent_cycle_from_trace(p, trace, temp_ref);
  if (eq.stress_time <= 0.0) return 0.0;

  double wall_period = 0.0;
  for (const StressInterval& iv : trace) wall_period += iv.duration;
  const double n_cycles = total_time / wall_period;
  const AcStress ac{eq.duty(), eq.period()};
  return ac_delta_vth(p, temp_ref, ac, n_cycles * eq.period(), vgs, vth0);
}

std::vector<StressInterval> trace_from_samples(
    std::span<const std::pair<double, double>> samples, double stress_prob) {
  if (samples.size() < 2) {
    throw std::invalid_argument("trace_from_samples: need >= 2 samples");
  }
  std::vector<StressInterval> trace;
  trace.reserve(samples.size() - 1);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double dt = samples[i].first - samples[i - 1].first;
    if (dt <= 0.0) {
      throw std::invalid_argument(
          "trace_from_samples: samples not time-ascending");
    }
    // Temperature over the gap: trailing value (the model holds the new
    // power level across the step).
    trace.push_back(StressInterval{dt, samples[i].second, stress_prob});
  }
  return trace;
}

ModeSchedule two_mode_abstraction(std::span<const StressInterval> trace,
                                  double split_temp) {
  double t_active = 0.0, t_standby = 0.0;
  double temp_active_acc = 0.0, temp_standby_acc = 0.0;
  for (const StressInterval& iv : trace) {
    if (iv.temperature >= split_temp) {
      t_active += iv.duration;
      temp_active_acc += iv.temperature * iv.duration;
    } else {
      t_standby += iv.duration;
      temp_standby_acc += iv.temperature * iv.duration;
    }
  }
  if (t_active <= 0.0 || t_standby <= 0.0) {
    throw std::invalid_argument(
        "two_mode_abstraction: split temperature leaves a mode empty");
  }
  return ModeSchedule{t_active, t_standby, temp_active_acc / t_active,
                      temp_standby_acc / t_standby};
}

}  // namespace nbtisim::nbti
