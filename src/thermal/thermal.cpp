#include "thermal/thermal.h"

#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

namespace nbtisim::thermal {

namespace {

/// Throws naming \p what unless \p ok; every check is written so that NaN
/// fails it.
void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("RcThermalModel") + what);
}

}  // namespace

RcThermalModel::RcThermalModel(ThermalParams params) : params_(params) {
  require(std::isfinite(params_.r_th) && params_.r_th > 0.0,
          ": r_th must be finite and > 0");
  require(std::isfinite(params_.c_th) && params_.c_th > 0.0,
          ": c_th must be finite and > 0");
  require(std::isfinite(params_.t_ambient) && params_.t_ambient > 0.0,
          ": t_ambient must be finite and > 0");
}

double RcThermalModel::steady_state(double power) const {
  return params_.t_ambient + power * params_.r_th;
}

double RcThermalModel::step(double t0, double power, double dt) const {
  require(std::isfinite(dt) && dt >= 0.0, "::step: dt must be finite and >= 0");
  require(std::isfinite(t0), "::step: t0 must be finite");
  require(std::isfinite(power), "::step: power must be finite");
  const double t_inf = steady_state(power);
  return t_inf + (t0 - t_inf) * std::exp(-dt / params_.tau());
}

std::vector<std::pair<double, double>> RcThermalModel::simulate(
    std::span<const TaskInterval> trace, double sample_dt,
    double t_initial) const {
  require(!trace.empty(), "::simulate: empty trace");
  require(std::isfinite(sample_dt) && sample_dt > 0.0,
          "::simulate: sample_dt must be finite and > 0");
  require(std::isfinite(t_initial), "::simulate: t_initial must be finite");
  for (const TaskInterval& task : trace) {
    require(std::isfinite(task.duration) && task.duration > 0.0,
            "::simulate: a task's duration must be finite and > 0");
    require(std::isfinite(task.power),
            "::simulate: a task's power must be finite");
  }
  std::vector<std::pair<double, double>> samples;
  double now = 0.0;
  double temp = t_initial;
  samples.emplace_back(now, temp);
  for (const TaskInterval& task : trace) {
    double remaining = task.duration;
    while (remaining > 0.0) {
      const double dt = std::min(sample_dt, remaining);
      temp = step(temp, task.power, dt);
      now += dt;
      remaining -= dt;
      samples.emplace_back(now, temp);
    }
  }
  return samples;
}

std::vector<TaskInterval> random_task_set(int n_tasks, double min_power,
                                          double max_power, double min_duration,
                                          double max_duration,
                                          std::uint64_t seed) {
  if (n_tasks < 1 || min_power > max_power || min_duration > max_duration ||
      min_duration <= 0.0) {
    throw std::invalid_argument("random_task_set: bad parameters");
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> power(min_power, max_power);
  std::uniform_real_distribution<double> dur(min_duration, max_duration);
  std::vector<TaskInterval> trace;
  trace.reserve(n_tasks);
  for (int i = 0; i < n_tasks; ++i) {
    trace.push_back(TaskInterval{dur(rng), power(rng)});
  }
  return trace;
}

std::pair<double, double> mode_temperatures(const RcThermalModel& model,
                                            double active_power,
                                            double standby_power) {
  return {model.steady_state(active_power), model.steady_state(standby_power)};
}

}  // namespace nbtisim::thermal
