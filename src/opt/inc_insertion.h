/// \file inc_insertion.h
/// \brief Internal-node control by control-point insertion / gate
///        replacement (the paper's refs [9] Yuan/Qu and [10]
///        Rahman/Chakrabarti, discussed in Section 4.3.3).
///
/// Table 4 bounds what controlling internal nodes *could* save; this module
/// implements the technique. A control point replaces the driver of a
/// selected net with a gated variant: one extra PMOS in parallel with the
/// pull-up (driven by sleep') forces the net to 1 during standby, and one
/// series NMOS in the pull-down keeps the gate functional when awake. The
/// cost is a small delay penalty on the modified driver (a fraction of its
/// delay, NOT a whole extra gate level); the benefit is that every PMOS
/// read by the forced net relaxes during standby and the forced 1 keeps
/// propagating relaxation downstream.
///
/// Selection: rank stressing nets (value 0 under the reference standby
/// vector) by reader count weighted by reader criticality, preferring nets
/// whose own driver is NOT timing-critical (the penalty lands on the
/// driver).
#pragma once

#include <vector>

#include "aging/aging.h"

namespace nbtisim::opt {

/// Control-point insertion knobs.
struct IncInsertionParams {
  int max_control_points = 10;   ///< nets to control
  double driver_delay_penalty = 0.08;  ///< fractional delay increase of a
                                       ///< modified driver (series NMOS)
};

/// Result: forced nets + before/after metrics on the SAME netlist.
struct IncInsertionResult {
  std::vector<netlist::NodeId> controlled;  ///< controlled nets
  double fresh_before = 0.0;  ///< fresh critical delay, unmodified [s]
  double fresh_after = 0.0;   ///< fresh critical delay with driver penalties [s]
  double aging_before = 0.0;  ///< degradation, all-zero standby, unmodified [%]
  double aging_after = 0.0;   ///< degradation with control points active [%]

  double time0_penalty_percent() const {
    return fresh_before > 0.0
               ? 100.0 * (fresh_after - fresh_before) / fresh_before
               : 0.0;
  }
  double aging_saving_percent() const {
    return aging_before > 0.0
               ? 100.0 * (aging_before - aging_after) / aging_before
               : 0.0;
  }
};

/// Selects control points in \p analyzer's netlist and evaluates the aging
/// benefit under its conditions (standby reference vector: all primary
/// inputs 0).  Each trial is a standby-vector select on \p analyzer plus
/// two STA passes over its penalty-scaled delays.
/// \throws std::invalid_argument for bad parameters (NaN included)
IncInsertionResult insert_control_points(const aging::AgingAnalyzer& analyzer,
                                         const IncInsertionParams& params = {});

}  // namespace nbtisim::opt
