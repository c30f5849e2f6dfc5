/// \file variation.h
/// \brief Process-variation-aware aged-delay distributions — paper Fig. 12
///        and the Section 5 discussion of [51].
///
/// With per-gate Gaussian Vth variation the circuit delay becomes a
/// distribution that shifts upward over the lifetime.  Two effects interact:
///   - a gate with lower Vth is faster but ages *more* (the oxide-field
///     factor of eq. 23 grows as Vgs - Vth grows), and vice versa;
///   - hence aging partially compensates static variation and the delay
///     variance shrinks slightly while the mean grows ([51]).
/// Each Monte-Carlo sample draws a per-gate Vth offset, scales the nominal
/// per-gate dVth by the field-factor ratio, and re-runs STA.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "aging/aging.h"

namespace nbtisim::variation {

/// The linearized delay law of the Monte-Carlo layers: a gate whose
/// threshold shifts by `shift` (its sampled Vth offset, plus its aged dVth)
/// has its fresh delay scaled by 1 + sens * shift, sens = alpha / (Vdd -
/// Vth0).  Like aging::taylor_delay_factor it holds only while the device
/// still switches (shift < Vdd - Vth0), and a large negative offset would
/// drive the factor, and with it the gate delay, to or below zero.
class LinearizedDelay {
 public:
  explicit LinearizedDelay(const tech::LibraryParams& lp)
      : sens_(lp.pmos.alpha / (lp.vdd - lp.pmos.vth0)),
        overdrive_(lp.vdd - lp.pmos.vth0) {}

  /// Delay factor of gate \p gi at threshold shift \p shift [V].
  /// \throws std::domain_error naming the gate's output net when \p shift
  ///         is non-finite or not below Vdd - Vth0, or the factor is <= 0
  double factor(double shift, const netlist::Netlist& nl, int gi) const {
    const double f = 1.0 + sens_ * shift;
    if (!std::isfinite(shift) || shift >= overdrive_ || !(f > 0.0)) {
      reject(shift, f, nl, gi);
    }
    return f;
  }

 private:
  [[noreturn]] void reject(double shift, double f, const netlist::Netlist& nl,
                           int gi) const;

  double sens_;
  double overdrive_;
};

/// Monte-Carlo knobs.
struct VariationParams {
  double sigma_vth = 0.015;  ///< per-gate Vth standard deviation [V]
  int samples = 500;
  std::uint64_t seed = 42;
  /// Fetch the nominal dVth through the analyzer's cached dVth(t) table.
  /// The horizon is the table's back node — an exact grid point — so the
  /// values are bitwise the gate_dvth result; the point is sharing one
  /// cached table (and its stress-descriptor reuse) with the lifetime /
  /// failure consumers of the same analyzer.
  bool use_dvth_table = false;
  int table_points_per_decade = 16;  ///< table resolution when enabled
};

/// Summary statistics of a sampled delay distribution.
struct DelayDistribution {
  std::vector<double> delays;  ///< per-sample circuit delay [s]

  double mean() const;
  double stddev() const;
  /// mean - 3 sigma / mean + 3 sigma bounds (the paper's Fig. 12 markers).
  double lower3() const { return mean() - 3.0 * stddev(); }
  double upper3() const { return mean() + 3.0 * stddev(); }
  /// Empirical quantile in [0, 1].
  double quantile(double q) const;
};

/// Variation-aware aging Monte-Carlo bound to an AgingAnalyzer.
class MonteCarloAging {
 public:
  MonteCarloAging(const aging::AgingAnalyzer& analyzer, VariationParams params);

  const VariationParams& params() const { return params_; }

  /// Delay distribution of the *fresh* circuit under Vth variation.
  DelayDistribution fresh_distribution() const;

  /// Delay distribution after \p total_time seconds of aging under
  /// \p policy, with per-sample aging/variation interaction.
  DelayDistribution aged_distribution(const aging::StandbyPolicy& policy,
                                      double total_time) const;

 private:
  std::vector<double> sample_offsets(std::uint64_t stream) const;

  const aging::AgingAnalyzer* analyzer_;
  VariationParams params_;
};

}  // namespace nbtisim::variation
