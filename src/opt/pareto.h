/// \file pareto.h
/// \brief True leakage/NBTI co-optimization of standby vectors: the Pareto
///        front of (standby leakage, 10-year delay degradation).
///
/// The paper's Fig. 6 flow picks the least-degrading member of a
/// minimum-leakage set — one point near the leakage-optimal end of the
/// trade-off. This module maps the whole trade-off: a seeded random sample
/// plus bit-flip local search maintains the set of non-dominated standby
/// vectors, from which a designer (or the standby advisor) picks by
/// weighting. At cold standby temperatures the front is nearly flat in the
/// degradation axis — the quantitative form of the paper's "IVC is somehow
/// less effective" conclusion.
#pragma once

#include <cstdint>
#include <vector>

#include "aging/aging.h"
#include "leakage/leakage.h"

namespace nbtisim::opt {

/// Search knobs.
struct ParetoParams {
  int random_samples = 64;   ///< initial random vectors
  int improve_rounds = 3;    ///< bit-flip local-search rounds over the front
  int flips_per_member = 8;  ///< random single-bit flips tried per member
  std::uint64_t seed = 19;
};

/// One evaluated standby vector.
struct ParetoPoint {
  std::vector<bool> vector;
  double leakage = 0.0;              ///< standby leakage [A]
  double degradation_percent = 0.0;  ///< 10-year delay degradation [%]
};

/// The non-dominated set.
struct ParetoResult {
  std::vector<ParetoPoint> front;  ///< ascending leakage, descending
                                   ///< degradation (non-dominated)
  int evaluated = 0;               ///< vectors evaluated in total

  const ParetoPoint& min_leakage() const { return front.front(); }
  const ParetoPoint& min_degradation() const { return front.back(); }

  /// Member minimizing w * normalized leakage + (1-w) * normalized
  /// degradation, w in [0,1].
  /// \throws std::invalid_argument for w outside [0,1]
  const ParetoPoint& pick(double leakage_weight) const;

  /// Trade-off depth: degradation spread across the front [%pt].
  double degradation_range() const {
    return front.front().degradation_percent -
           front.back().degradation_percent;
  }
};

/// Computes the Pareto front for \p analyzer's circuit; leakage evaluated
/// by \p standby_leak (bind it at the standby temperature).
/// \throws std::invalid_argument on mismatched netlists or bad parameters
ParetoResult pareto_standby_vectors(const aging::AgingAnalyzer& analyzer,
                                    const leakage::LeakageAnalyzer& standby_leak,
                                    const ParetoParams& params = {});

}  // namespace nbtisim::opt
