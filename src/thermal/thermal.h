/// \file thermal.h
/// \brief Lumped-RC package thermal model and task-set power traces —
///        paper Section 2.1 / Fig. 2.
///
/// The paper motivates temperature-aware NBTI with the observation that a
/// processor running a task set with power swinging between ~10 W and
/// ~130 W sees die temperatures between ~60 and ~110 C under typical air
/// cooling, converging to steady state "in the order of milliseconds".
/// This module substitutes the Montecito power traces + HotSpot-style
/// simulation with a single-node RC model:
///       C_th dT/dt = P - (T - T_amb) / R_th
/// whose constants are chosen to reproduce exactly that operating band
/// (DESIGN.md Section 2).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace nbtisim::thermal {

/// Package thermal constants (defaults reproduce the Fig. 2 band:
/// 10 W -> 333 K, 130 W -> 383 K, tau = 5 ms).
struct ThermalParams {
  double r_th = 0.4167;    ///< junction-to-ambient resistance [K/W]
  double c_th = 0.012;     ///< lumped thermal capacitance [J/K]
  double t_ambient = 328.8;///< effective ambient (heatsink base) [K]

  double tau() const { return r_th * c_th; }
};

/// One task interval of a power trace.
struct TaskInterval {
  double duration = 0.0;  ///< [s]
  double power = 0.0;     ///< [W]
};

/// Single-node RC thermal model.
class RcThermalModel {
 public:
  /// \throws std::invalid_argument naming the field unless r_th, c_th and
  ///         t_ambient are finite and > 0
  explicit RcThermalModel(ThermalParams params = {});

  const ThermalParams& params() const { return params_; }

  /// Steady-state temperature at constant power [K].
  double steady_state(double power) const;

  /// Temperature after holding \p power for \p dt starting from \p t0 [K]
  /// (exact exponential step).
  /// \throws std::invalid_argument unless \p dt is finite and >= 0 and
  ///         \p t0 and \p power are finite
  double step(double t0, double power, double dt) const;

  /// Simulates a task-set power trace; returns (time, temperature) samples
  /// every \p sample_dt seconds.
  /// \throws std::invalid_argument for an empty trace, unless \p sample_dt
  ///         is finite and > 0 and \p t_initial finite, and unless every
  ///         task's duration is finite and > 0 and its power finite
  std::vector<std::pair<double, double>> simulate(
      std::span<const TaskInterval> trace, double sample_dt,
      double t_initial) const;

 private:
  ThermalParams params_;
};

/// Deterministic random task set in the paper's power band (10-130 W).
std::vector<TaskInterval> random_task_set(int n_tasks, double min_power,
                                          double max_power, double min_duration,
                                          double max_duration,
                                          std::uint64_t seed);

/// Steady-state active/standby temperatures implied by two power levels —
/// how T_active / T_standby for the aging model are derived from a design's
/// power envelope.
std::pair<double, double> mode_temperatures(const RcThermalModel& model,
                                            double active_power,
                                            double standby_power);

}  // namespace nbtisim::thermal
