/// \file lifetime.h
/// \brief Lifetime distributions: time-to-timing-failure under process
///        variation and NBTI aging — the inverse question of Fig. 12.
///
/// Fig. 12 asks "what is the delay distribution at time t"; a designer asks
/// "when does each die stop meeting its spec". Per Monte-Carlo sample the
/// aged delay is monotone in time, so the failure time (aged delay crossing
/// spec = fresh nominal * (1 + margin)) is found by bisection on a shared
/// nominal dVth(t) grid.  Each sample is drawn once by the Fig. 12 sampler,
/// MonteCarloAging, which scales the grid's dVth by its oxide-field factor
/// at every point the bisection reads.  A grid point's nominal dVth is
/// computed on its first read, once for all samples: the bisections read
/// only a few of the points (on the circuits measured, 8 of the default 40
/// when lifetimes fall mid-grid, and only the horizon when every sample
/// survives).
#pragma once

#include <cstdint>
#include <vector>

#include "aging/aging.h"

namespace nbtisim::variation {

/// Lifetime-analysis knobs.
struct LifetimeParams {
  double spec_margin_percent = 5.0;  ///< failure = delay above fresh nominal
                                     ///< by more than this margin
  double sigma_vth = 0.012;          ///< per-gate Vth variation [V]
  int samples = 200;
  std::uint64_t seed = 42;
  double max_time = 9.5e8;           ///< analysis horizon (~30 years) [s]
  int time_grid_points = 40;         ///< nominal dVth(t) grid resolution:
                                     ///< one exact gate_dvth per point
                                     ///< some sample reads
};

/// Per-sample failure times and summary statistics.
struct LifetimeResult {
  std::vector<double> lifetimes;  ///< per-sample failure time [s];
                                  ///< clipped to max_time for survivors
  double max_time = 0.0;          ///< the horizon used
  int grid_points_evaluated = 0;  ///< grid points whose nominal dVth was
                                  ///< computed: the ones the bisections read

  /// Fraction of samples that fail within \p t seconds.
  double failure_fraction_at(double t) const;
  /// Empirical lifetime quantile in [0,1] (clipped samples count as
  /// max_time); see common::empirical_quantile.
  double quantile(double q) const;
  /// Fraction of samples still meeting spec at the horizon.
  double survivor_fraction() const { return 1.0 - failure_fraction_at(max_time * (1.0 - 1e-9)); }
};

/// Computes the lifetime distribution of \p analyzer's circuit under
/// \p policy.
/// \throws std::invalid_argument naming the parameter for a non-finite or
///         out-of-range one, or a grid time that is not finite and > 0
LifetimeResult lifetime_distribution(const aging::AgingAnalyzer& analyzer,
                                     const aging::StandbyPolicy& policy,
                                     const LifetimeParams& params = {});

}  // namespace nbtisim::variation
