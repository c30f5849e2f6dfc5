/// \file electrothermal.h
/// \brief Electrothermal operating-point solver: leakage heats the die,
///        heat multiplies leakage.
///
/// The paper takes T_active / T_standby as given steady states; physically
/// they are the fixpoint of the loop
///     T = T_amb + R_th * (P_dynamic + P_leakage(T))
/// because subthreshold leakage grows steeply with temperature. This module
/// solves that fixpoint for a circuit (scaled by a replication factor to
/// represent a full die of such blocks) and detects *thermal runaway* —
/// the regime where d(P_leak)/dT * R_th >= 1 and no stable operating point
/// exists.
#pragma once

#include <span>
#include <vector>

#include "leakage/leakage.h"
#include "thermal/thermal.h"

namespace nbtisim::thermal {

/// Solver knobs.
struct ElectrothermalParams {
  double dynamic_power_w = 0.0;  ///< temperature-independent power [W]
  double replication = 1.0e5;    ///< number of identical blocks on the die
  double supply_v = 1.0;         ///< rail voltage (leakage current -> watts)
  double tolerance_k = 0.01;     ///< convergence threshold [K]
  int max_iterations = 60;
  /// Iterates above this temperature are declared thermal runaway [K] —
  /// the silicon would long be dead; raising it only wastes iterations on
  /// a fixpoint that does not exist.
  double runaway_temp_k = 1000.0;
};

/// Result of the fixpoint iteration.
struct OperatingPoint {
  double temperature_k = 0.0;   ///< converged die temperature [K]
  double leakage_w = 0.0;       ///< leakage power at that temperature [W]
  int iterations = 0;
  bool converged = false;       ///< false = thermal runaway / divergence
};

/// Solves the electrothermal fixpoint for the circuit behind \p nl under a
/// static input vector \p standby_vector (the leakage state).
///
/// A solve simulates the vector once. Each iterate then characterizes only
/// the distinct (cell, input state) pairs that the gates read, with
/// tech::Library::cell_leakage, and adds the per-gate values in gate order,
/// so its leakage is bitwise leakage::LeakageAnalyzer(nl, lib, T)
/// .circuit_leakage(standby_vector); no table is built.
/// \throws std::invalid_argument naming the field for a non-finite
///         dynamic_power_w; a replication, supply_v, tolerance_k or
///         runaway_temp_k that is not finite and > 0; max_iterations < 1;
///         or a starting iterate model.steady_state(dynamic_power_w) that
///         is not finite and > 0 K
OperatingPoint solve_operating_point(const netlist::Netlist& nl,
                                     const tech::Library& lib,
                                     const RcThermalModel& model,
                                     const std::vector<bool>& standby_vector,
                                     const ElectrothermalParams& params = {});

/// Batched horizon/power sweep: one operating point per entry of
/// \p dynamic_powers, each overriding params.dynamic_power_w.  The fixpoints
/// are independent, so they fan out over common::parallel_for — each sweep
/// cell writes only its own slot, making the result bit-identical to the
/// serial loop for every thread count.
/// \throws std::invalid_argument as solve_operating_point
std::vector<OperatingPoint> solve_operating_points(
    const netlist::Netlist& nl, const tech::Library& lib,
    const RcThermalModel& model, const std::vector<bool>& standby_vector,
    std::span<const double> dynamic_powers,
    const ElectrothermalParams& params = {});

}  // namespace nbtisim::thermal
