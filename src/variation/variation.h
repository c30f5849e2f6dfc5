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
/// MonteCarloAging is the one sampler of the Monte-Carlo layers (these
/// distributions, lifetime.h and criticality.h): per-gate Vth offsets, the
/// field-factor ratio scaling each gate's nominal dVth, the linearized delay
/// law over AgingAnalyzer::fresh_delays(), and one STA pass per sample.  No
/// caller passes an analyzer with gate_vth_offsets; one that did would time
/// the offset circuit its gate_dvth already assumes.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
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
};

/// Summary statistics of a sampled delay distribution.
struct DelayDistribution {
  std::vector<double> delays;  ///< per-sample circuit delay [s]

  double mean() const;
  double stddev() const;
  /// mean - 3 sigma / mean + 3 sigma bounds (the paper's Fig. 12 markers).
  double lower3() const { return mean() - 3.0 * stddev(); }
  double upper3() const { return mean() + 3.0 * stddev(); }
  /// Empirical quantile in [0, 1]; see common::empirical_quantile.
  double quantile(double q) const;
};

/// Variation-aware aging Monte-Carlo bound to an AgingAnalyzer.
class MonteCarloAging {
 public:
  /// One Monte-Carlo die: per-gate Vth offsets [V] and, when drawn aged,
  /// each gate's nominal-dVth scale field_factor(vth0 + offset) /
  /// field_factor(vth0).
  struct Sample {
    std::vector<double> offset;
    std::vector<double> dvth_scale;  ///< empty when drawn fresh
  };

  /// \throws std::invalid_argument naming the parameter for samples < 2 or
  ///         a sigma_vth that is not finite and >= 0
  MonteCarloAging(const aging::AgingAnalyzer& analyzer, VariationParams params);

  const VariationParams& params() const { return params_; }

  /// Sample \p s, drawn from the stream stream_seed(seed, s) whatever thread
  /// draws it; \p aged adds each gate's dVth scale.
  Sample draw(int s, bool aged) const;

  /// Gate delays of \p sample into \p out: each gate's fresh delay times
  /// the linearized factor at offset + nominal_dvth * dvth_scale, or at the
  /// offset alone (the fresh circuit) when \p nominal_dvth is empty.
  /// \throws std::invalid_argument for a nominal dVth with a sample drawn
  ///         fresh, and std::domain_error from LinearizedDelay::factor
  void delays(const Sample& sample, std::span<const double> nominal_dvth,
              std::vector<double>& out) const;

  /// Delay distribution of the *fresh* circuit under Vth variation.
  DelayDistribution fresh_distribution() const;

  /// Delay distribution after \p total_time seconds of aging under
  /// \p policy, with per-sample aging/variation interaction.
  DelayDistribution aged_distribution(const aging::StandbyPolicy& policy,
                                      double total_time) const;

 private:
  /// One STA pass per sample over delays(draw(s), nominal_dvth).
  DelayDistribution distribution(std::span<const double> nominal_dvth) const;

  const aging::AgingAnalyzer* analyzer_;
  VariationParams params_;
  LinearizedDelay law_;
  double ff_nominal_;  ///< field_factor at the nominal Vth0
};

}  // namespace nbtisim::variation
