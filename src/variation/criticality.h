/// \file criticality.h
/// \brief Statistical criticality: the probability of each gate lying on
///        the circuit's critical path under process variation.
///
/// Deterministic STA reports one critical path; with per-gate Vth variation
/// the critical path is a random variable and *many* gates carry critical-
/// path probability mass. Criticality matters for the optimization passes:
/// dual-Vth assignment and NBTI-aware sizing should protect the gates that
/// are *likely* critical, not just the nominal path.  The dies are
/// MonteCarloAging's (variation.h).
#pragma once

#include <cstdint>
#include <vector>

#include "aging/aging.h"

namespace nbtisim::variation {

/// Monte-Carlo criticality knobs.
struct CriticalityParams {
  double sigma_vth = 0.015;  ///< per-gate Vth variation [V]
  int samples = 300;
  std::uint64_t seed = 51;
  bool aged = false;         ///< measure criticality of the AGED circuit
                             ///< (under the worst-case standby policy)
  double total_time = 3.0e8; ///< aging horizon when aged = true
};

/// Per-gate criticality result.
struct CriticalityResult {
  std::vector<double> probability;  ///< P(gate on the sample's critical path)
  int distinct_paths = 0;           ///< number of distinct critical POs seen

  /// Gates with probability above \p threshold, most critical first.
  std::vector<int> critical_set(double threshold = 0.05) const;
};

/// Estimates per-gate critical-path probability by Monte-Carlo over Vth
/// variation (and optionally aging).
/// \throws std::invalid_argument naming the parameter for samples < 2 or a
///         sigma_vth or total_time that is not finite and >= 0
CriticalityResult gate_criticality(const aging::AgingAnalyzer& analyzer,
                                   const CriticalityParams& params = {});

}  // namespace nbtisim::variation
