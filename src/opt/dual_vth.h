/// \file dual_vth.h
/// \brief Slack-based dual-Vth assignment and its leakage/NBTI co-benefit.
///
/// The paper's Section 4.1 observes that a higher Vth simultaneously cuts
/// subthreshold leakage (exponentially) and NBTI degradation (through the
/// oxide-field factor of eq. 23), so "leakage reduction techniques that
/// adjust Vth in the design phase ... may mitigate the circuit performance
/// degradation due to NBTI". This module makes that concrete with the
/// classic design-time technique the paper cites ([30], and the authors'
/// own signal-path dual-Vth tool [44]):
///
///   - every gate starts low-Vth;
///   - gates are moved to the high-Vth variant in increasing order of
///     timing criticality (largest slack first) while the fresh critical
///     path stays within a delay budget (binary search on the slack
///     threshold);
///   - the result is evaluated fresh and aged, low-Vth-only vs dual-Vth.
#pragma once

#include "aging/aging.h"
#include "leakage/leakage.h"

namespace nbtisim::opt {

/// Dual-Vth assignment knobs.
struct DualVthParams {
  double high_vth_offset = 0.10;      ///< Vth increase of the high-Vth cell [V]
  double delay_budget_percent = 2.0;  ///< allowed fresh-delay increase [%]
};

/// Result of the assignment + evaluation.
struct DualVthResult {
  std::vector<double> gate_vth_offsets;  ///< 0 or high_vth_offset, per gate
  int n_high = 0;                        ///< gates moved to high Vth

  double fresh_delay_low = 0.0;   ///< all-low-Vth critical delay [s]
  double fresh_delay_dual = 0.0;  ///< dual-Vth critical delay [s]
  double leakage_low = 0.0;       ///< all-low standby leakage (MLV-free,
                                  ///< all-zero inputs) [A]
  double leakage_dual = 0.0;      ///< dual-Vth standby leakage [A]
  double aging_low_percent = 0.0; ///< worst-case 10-y degradation, all-low
  double aging_dual_percent = 0.0;///< worst-case 10-y degradation, dual

  double high_fraction() const {
    return gate_vth_offsets.empty()
               ? 0.0
               : static_cast<double>(n_high) / gate_vth_offsets.size();
  }
  double leakage_saving_percent() const {
    return leakage_low > 0.0
               ? 100.0 * (leakage_low - leakage_dual) / leakage_low
               : 0.0;
  }
  double aging_saving_percent() const {
    return aging_low_percent > 0.0
               ? 100.0 * (aging_low_percent - aging_dual_percent) /
                     aging_low_percent
               : 0.0;
  }
};

/// Runs the assignment and the before/after evaluation.
///
/// \param low all-low-Vth aging; its STA engine times the assignment, and
///        the dual-Vth analyzer is built with its conditions
/// \param standby_leak all-low leakage at the standby temperature
/// \throws std::invalid_argument for a negative budget or a non-positive
///         offset (NaN included), or for \p low carrying offsets or bound
///         to another netlist than \p standby_leak
DualVthResult assign_dual_vth(const aging::AgingAnalyzer& low,
                              const leakage::LeakageAnalyzer& standby_leak,
                              const DualVthParams& params = {});

}  // namespace nbtisim::opt
