/// \file failure.h
/// \brief Multi-mechanism failure suite: per-gate/per-mechanism MTTF from
///        degradation-threshold crossings and hard-failure acceleration
///        laws, Weibull-aggregated into a system failure curve.
///
/// The wear-out mechanisms (NBTI, PBTI, HCI) shift thresholds gradually;
/// a device is declared *failed* when its dVth(t) series crosses a failure
/// threshold, with the crossing time found by linear interpolation on a
/// geometric time grid (the lognormal-free variant of the RAMP/oldspot
/// recipe).  The hard-failure mechanisms (TDDB, EM) deliver an MTTF
/// directly from their acceleration laws.  Every (gate, mechanism) pair
/// then becomes a Weibull unit lifetime with shape \f$\beta\f$ and scale
/// \f$\eta = \mathrm{MTTF}/\Gamma(1+1/\beta)\f$, and the system — a series
/// system, any failure is fatal — fails as
/// \f[ F_{sys}(t) = 1 - \exp\!\big(-t^\beta \sum_u \eta_u^{-\beta}\big) \f]
/// with \f$\mathrm{MTTF}_{sys} = (\sum_u \eta_u^{-\beta})^{-1/\beta}
/// \,\Gamma(1+1/\beta)\f$.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "aging/multi.h"

namespace nbtisim::aging {

/// MTTF sentinel for a unit that never crosses its failure criterion
/// inside the evaluation window (or cannot fail at all, e.g. EM on a wire
/// carrying no current): +infinity.  Such units drop out of the Weibull
/// sum — they contribute no failure rate.
extern const double kNeverFails;

/// Failure-suite knobs; defaults follow the paper's operating point.
struct FailureParams {
  /// Wear-out mechanism parameters (PBTI/HCI enables + technology knobs
  /// live here; clock_hz drives both HCI and the EM switching current).
  MultiAgingParams multi{};
  nbti::TddbParams tddb{};
  nbti::EmParams em{};
  bool enable_nbti = true;
  bool enable_tddb = true;
  bool enable_em = true;

  /// |dVth| at which a wear-out mechanism has killed the device [V].
  double fail_dvth = 0.05;
  /// Evaluation window for the dVth crossing search [years].
  double max_years = 100.0;
  /// Geometric time-grid points spanning the window (>= 2).
  int time_points = 40;
  /// Weibull shape of every unit lifetime (2 = classic wear-out).
  double weibull_beta = 2.0;
  /// Years at which the system failure curve is reported.
  std::vector<double> curve_years = {1.0, 2.0, 5.0, 10.0, 20.0, 30.0};
};

/// Per-mechanism lifetime summary.
struct MechanismMttf {
  std::string name;               ///< "nbti", "pbti", "hci", "tddb", "em"
  std::vector<double> gate_mttf;  ///< per-gate MTTF [years]; kNeverFails
                                  ///< when the criterion is never met
  /// Weibull-aggregated MTTF of this mechanism alone over all gates
  /// [years]; kNeverFails when no gate fails.
  double system_mttf = 0.0;
};

/// Full failure-suite report. All times are in years.
struct FailureReport {
  double weibull_beta = 2.0;
  std::vector<MechanismMttf> mechanisms;
  /// \f$\sum_u \eta_u^{-\beta}\f$ over every failing (gate, mechanism)
  /// unit [years^-beta]; 0 when nothing fails.
  double lambda = 0.0;
  /// System MTTF across all mechanisms [years]; kNeverFails if lambda = 0.
  double system_mttf = 0.0;
  /// (years, F_sys) samples at FailureParams::curve_years.
  std::vector<std::pair<double, double>> failure_curve;

  /// System failure probability at \p t_years.
  double system_failure_at(double t_years) const;
};

/// First time at which the piecewise-linear series (\p times, \p values)
/// reaches \p threshold, with an implicit (0, 0) origin before the first
/// sample and linear interpolation inside the crossing segment; kNeverFails
/// when the series stays below the threshold.  \p times must be positive
/// ascending and the same size as \p values.
/// \throws std::invalid_argument for a non-positive threshold or
///         mismatched/empty series
double crossing_time(std::span<const double> times,
                     std::span<const double> values, double threshold);

/// Runs the failure suite on \p analyzer's circuit under \p policy.
/// \throws std::invalid_argument naming the parameter for a Rotating
///         policy with an empty rotation, a fail_dvth, max_years or
///         weibull_beta that is not finite and > 0, time_points < 2, a
///         multi.clock_hz or curve_years entry that is not finite and >= 0,
///         or — with PBTI enabled — a NaN, infinite or negative
///         multi.pbti.ratio
FailureReport analyze_failure(const AgingAnalyzer& analyzer,
                              const StandbyPolicy& policy,
                              const FailureParams& params = {});

}  // namespace nbtisim::aging
