/// \file trace.h
/// \brief Trace-driven temperature-aware NBTI evaluation.
///
/// The paper abstracts operation into two modes (active/standby at two
/// steady-state temperatures, split by RAS). Real thermal profiles — like
/// the task-set trace of Fig. 2 — move through a continuum of temperatures.
/// This extension generalizes the equivalent-time transform (eqs. 17-19)
/// piecewise: an interval of duration dt at temperature T under stress
/// fraction c contributes
///     c * dt * D(T)/D(T_ref)        of equivalent stress time, and
///     (1 - c) * dt                  of recovery time
/// (recovery unscaled, per the paper's relaxation-insensitivity
/// observation). The whole trace becomes one EquivalentCycle which repeats
/// for the lifetime, so the standard AC machinery applies unchanged.
///
/// `bench_ext_techniques` quantifies how well the paper's two-mode RAS
/// abstraction tracks a full thermal trace.
#pragma once

#include <span>
#include <vector>

#include "nbti/ac_model.h"
#include "nbti/schedule.h"

namespace nbtisim::nbti {

/// One interval of a stress/temperature trace.
struct StressInterval {
  double duration = 0.0;     ///< [s]
  double temperature = 0.0;  ///< [K]
  double stress_prob = 0.0;  ///< fraction of the interval the PMOS is stressed
};

/// Collapses a trace into one equivalent stress/recovery cycle referenced to
/// \p temp_ref (piecewise eqs. 17-19).
/// \throws std::invalid_argument on an empty trace or malformed intervals
EquivalentCycle equivalent_cycle_from_trace(
    const RdParams& p, std::span<const StressInterval> trace, double temp_ref);

/// dVth after \p total_time seconds of the repeating \p trace, for a device
/// with gate bias \p vgs and initial threshold \p vth0, all referenced to
/// \p temp_ref [V].
double trace_delta_vth(const RdParams& p, std::span<const StressInterval> trace,
                       double temp_ref, double total_time, double vgs,
                       double vth0);

/// Builds a StressInterval trace from (time, temperature) samples — e.g.
/// the output of thermal::RcThermalModel::simulate — by assigning each
/// sample gap the given stress probability. Samples must be time-ascending.
std::vector<StressInterval> trace_from_samples(
    std::span<const std::pair<double, double>> samples, double stress_prob);

/// The two-mode RAS abstraction of a trace: splits intervals into
/// active/standby by the temperature threshold \p split_temp and returns the
/// equivalent ModeSchedule (durations summed, temperatures duration-averaged
/// per mode). Used by the abstraction-quality ablation.
/// \throws std::invalid_argument when a mode ends up empty
ModeSchedule two_mode_abstraction(std::span<const StressInterval> trace,
                                  double split_temp);

}  // namespace nbtisim::nbti
