/// \file multi.h
/// \brief Multi-mechanism circuit aging: NBTI (PMOS) + PBTI + HCI (NMOS),
///        combined per timing arc by the slew-aware STA.
///
/// NBTI slows pull-up arcs; PBTI and HCI shift NMOS thresholds and slow
/// pull-down arcs. Because rising and falling arrivals interleave along a
/// path, the mechanisms do NOT simply add at the circuit level — the
/// slew-aware engine resolves the interaction arc by arc.
#pragma once

#include "aging/aging.h"
#include "nbti/other_mechanisms.h"

namespace nbtisim::aging {

/// Which mechanisms to include and their technology parameters.
struct MultiAgingParams {
  bool enable_pbti = true;
  bool enable_hci = true;
  nbti::PbtiParams pbti{};
  nbti::HciParams hci{};
  double clock_hz = 1.0e9;  ///< active-mode switching rate for HCI
};

/// Multi-mechanism degradation report.
struct MultiAgingReport {
  double fresh_delay = 0.0;      ///< [s]
  double aged_delay = 0.0;       ///< all mechanisms [s]
  double nbti_only_delay = 0.0;  ///< aged with NBTI alone [s]
  std::vector<double> pmos_dvth; ///< per-gate NBTI shift [V]
  std::vector<double> nmos_dvth; ///< per-gate PBTI+HCI shift [V]

  double percent() const {
    return fresh_delay > 0.0
               ? 100.0 * (aged_delay - fresh_delay) / fresh_delay
               : 0.0;
  }
  double nbti_only_percent() const {
    return fresh_delay > 0.0
               ? 100.0 * (nbti_only_delay - fresh_delay) / fresh_delay
               : 0.0;
  }
};

/// Runs the combined analysis on \p analyzer's circuit.
///
/// Per gate, the NMOS shift is pbti.ratio times the worst NMOS R-D shift
/// (AgingAnalyzer::build_stress with tech::Channel::Nmos, evaluated like
/// gate_dvth) plus the HCI contribution of the gate's switching activity.
/// \throws std::invalid_argument for a Rotating policy with an empty
///         rotation, or — with PBTI enabled — a NaN, infinite or negative
///         pbti.ratio
MultiAgingReport analyze_multi_mechanism(const AgingAnalyzer& analyzer,
                                         const StandbyPolicy& policy,
                                         const MultiAgingParams& params = {},
                                         std::optional<double> total_time = {});

}  // namespace nbtisim::aging
