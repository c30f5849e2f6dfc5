#include "aging/failure.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/pool.h"
#include "tech/units.h"

namespace nbtisim::aging {

const double kNeverFails = std::numeric_limits<double>::infinity();

double crossing_time(std::span<const double> times,
                     std::span<const double> values, double threshold) {
  if (threshold <= 0.0) {
    throw std::invalid_argument("crossing_time: non-positive threshold");
  }
  if (times.empty() || times.size() != values.size()) {
    throw std::invalid_argument("crossing_time: empty or mismatched series");
  }
  double t_prev = 0.0;
  double v_prev = 0.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (values[i] >= threshold) {
      // Linear interpolation inside the crossing segment; a flat segment
      // already at the threshold crosses at its right edge.
      if (values[i] <= v_prev) return times[i];
      return t_prev +
             (times[i] - t_prev) * (threshold - v_prev) / (values[i] - v_prev);
    }
    t_prev = times[i];
    v_prev = values[i];
  }
  return kNeverFails;
}

double FailureReport::system_failure_at(double t_years) const {
  if (t_years <= 0.0) return 0.0;
  return 1.0 - std::exp(-std::pow(t_years, weibull_beta) * lambda);
}

namespace {

/// Geometric time grid over (0, max_years] in seconds, spanning three
/// decades so early crossings interpolate from dense samples.
std::vector<double> time_grid(double max_years, int n_points) {
  const double t_max = max_years * kSecondsPerYear;
  const double t_min = t_max / 1.0e3;
  const double ratio = std::pow(t_max / t_min,
                                1.0 / static_cast<double>(n_points - 1));
  std::vector<double> t(n_points);
  for (int i = 0; i < n_points; ++i) {
    t[i] = t_min * std::pow(ratio, static_cast<double>(i));
  }
  t.back() = t_max;  // land exactly on the window edge
  return t;
}

/// Weibull-aggregates a set of unit MTTFs: returns sum of eta^-beta over
/// the finite entries (each unit's scale eta = mttf / gamma).
double weibull_lambda(const std::vector<double>& mttf_years, double beta,
                      double gamma) {
  double lambda = 0.0;
  for (double m : mttf_years) {
    if (std::isfinite(m) && m > 0.0) lambda += std::pow(gamma / m, beta);
  }
  return lambda;
}

double lambda_to_mttf(double lambda, double beta, double gamma) {
  if (lambda <= 0.0) return kNeverFails;
  return std::pow(lambda, -1.0 / beta) * gamma;
}

}  // namespace

FailureReport analyze_failure(const AgingAnalyzer& analyzer,
                              const StandbyPolicy& policy,
                              const FailureParams& params) {
  // Every check is written so NaN fails too.
  auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("analyze_failure: ") + what);
    }
  };
  require(std::isfinite(params.fail_dvth) && params.fail_dvth > 0.0,
          "fail_dvth must be finite and > 0");
  require(std::isfinite(params.max_years) && params.max_years > 0.0,
          "max_years must be finite and > 0");
  require(std::isfinite(params.weibull_beta) && params.weibull_beta > 0.0,
          "weibull_beta must be finite and > 0");
  require(params.time_points >= 2, "time_points must be >= 2");
  require(std::isfinite(params.multi.clock_hz) && params.multi.clock_hz >= 0.0,
          "multi.clock_hz must be finite and >= 0");
  for (double y : params.curve_years) {
    require(std::isfinite(y) && y >= 0.0,
            "every curve_years entry must be finite and >= 0");
  }
  const double pbti_ratio = params.multi.pbti.ratio;
  require(!params.multi.enable_pbti ||
              (std::isfinite(pbti_ratio) && pbti_ratio >= 0.0),
          "pbti.ratio must be finite and >= 0");

  const netlist::Netlist& nl = analyzer.sta().netlist();
  const tech::Library& lib = analyzer.sta().library();
  const AgingConditions& cond = analyzer.conditions();
  const sim::SignalStats& stats = analyzer.signal_stats();
  const int n_gates = nl.num_gates();
  const double vdd = lib.params().vdd;
  const double period = cond.schedule.period();
  const double active_fraction =
      period > 0.0 ? cond.schedule.t_active / period : 0.0;

  const std::vector<double> t_sec = time_grid(params.max_years,
                                              params.time_points);
  const int n_points = static_cast<int>(t_sec.size());

  FailureReport rep;
  rep.weibull_beta = params.weibull_beta;

  // --- Wear-out mechanisms: dVth(t) series -> threshold crossing. -------

  // Per-gate MTTFs of a BTI mechanism; series[i][gi] is gate gi's
  // worst-device shift at t_sec[i].
  using Series = std::vector<std::vector<double>>;
  const auto crossing_mttf = [&](const char* name, const Series& series) {
    MechanismMttf m;
    m.name = name;
    m.gate_mttf.assign(n_gates, kNeverFails);
    common::parallel_for(n_gates, [&](int gi) {
      std::vector<double> v(n_points);
      for (int i = 0; i < n_points; ++i) v[i] = series[i][gi];
      m.gate_mttf[gi] =
          crossing_time(t_sec, v, params.fail_dvth) / kSecondsPerYear;
    });
    return m;
  };

  if (params.enable_nbti) {
    // One gate_dvth call per grid point: the analyzer's cached stress
    // descriptors make each horizon O(1) per device.
    Series series(n_points);
    for (int i = 0; i < n_points; ++i) {
      series[i] = analyzer.gate_dvth(policy, t_sec[i]);
    }
    rep.mechanisms.push_back(crossing_mttf("nbti", series));
  }

  if (params.multi.enable_pbti) {
    // The NMOS stress set, built once for this call (not cached), through
    // the evaluator gate_dvth uses.  Scaling the per-gate maximum by the
    // (validated non-negative) ratio equals the max-of-scaled reduction bit
    // for bit: rounded multiplication by a non-negative constant is
    // monotone, and every dVth is >= 0.
    const AgingAnalyzer::StressSet nmos =
        analyzer.build_stress(policy, tech::Channel::Nmos);
    Series series(n_points);
    for (int i = 0; i < n_points; ++i) {
      series[i] = analyzer.worst_per_gate(nmos, t_sec[i]);
      for (double& d : series[i]) d *= pbti_ratio;
    }
    rep.mechanisms.push_back(crossing_mttf("pbti", series));
  }

  if (params.multi.enable_hci) {
    MechanismMttf m;
    m.name = "hci";
    m.gate_mttf.assign(n_gates, kNeverFails);
    common::parallel_for(n_gates, [&](int gi) {
      const double activity = stats.activity[nl.gate(gi).output];
      std::vector<double> v(n_points);
      for (int i = 0; i < n_points; ++i) {
        v[i] = nbti::hci_delta_vth(params.multi.hci, activity,
                                   params.multi.clock_hz, cond.schedule,
                                   t_sec[i]);
      }
      m.gate_mttf[gi] =
          crossing_time(t_sec, v, params.fail_dvth) / kSecondsPerYear;
    });
    rep.mechanisms.push_back(std::move(m));
  }

  // --- Hard-failure mechanisms: acceleration-law MTTF directly. ---------

  if (params.enable_tddb) {
    // The oxide sees both operating points; exposures compete: the
    // failure rates add, weighted by the time spent at each temperature.
    double rate = 0.0;
    if (active_fraction > 0.0) {
      rate += active_fraction /
              nbti::tddb_mttf(params.tddb, vdd, cond.schedule.temp_active);
    }
    if (active_fraction < 1.0) {
      rate += (1.0 - active_fraction) /
              nbti::tddb_mttf(params.tddb, vdd, cond.schedule.temp_standby);
    }
    const double mttf =
        rate > 0.0 ? 1.0 / rate / kSecondsPerYear : kNeverFails;
    MechanismMttf m;
    m.name = "tddb";
    m.gate_mttf.assign(n_gates, mttf);
    rep.mechanisms.push_back(std::move(m));
  }

  if (params.enable_em) {
    const sta::StaEngine& sta = analyzer.sta();
    MechanismMttf m;
    m.name = "em";
    m.gate_mttf.assign(n_gates, kNeverFails);
    common::parallel_for(n_gates, [&](int gi) {
      // Average switching current of the output wire while active:
      // activity x f_clk charge pumps of C_load * Vdd per second.
      const double current = stats.activity[nl.gate(gi).output] *
                             params.multi.clock_hz * sta.gate_load(gi) * vdd;
      if (active_fraction <= 0.0) return;  // no charge flow: never fails
      const double intrinsic =
          nbti::em_mttf(params.em, current, cond.schedule.temp_active);
      // EM damage accrues only while current flows, so the wall-clock
      // MTTF stretches by the idle time.
      m.gate_mttf[gi] = intrinsic / active_fraction / kSecondsPerYear;
    });
    rep.mechanisms.push_back(std::move(m));
  }

  // --- Weibull aggregation: units in series, any failure is fatal. ------

  const double gamma = std::tgamma(1.0 + 1.0 / params.weibull_beta);
  rep.lambda = 0.0;
  for (MechanismMttf& m : rep.mechanisms) {
    const double lm = weibull_lambda(m.gate_mttf, params.weibull_beta, gamma);
    m.system_mttf = lambda_to_mttf(lm, params.weibull_beta, gamma);
    rep.lambda += lm;
  }
  rep.system_mttf = lambda_to_mttf(rep.lambda, params.weibull_beta, gamma);
  rep.failure_curve.reserve(params.curve_years.size());
  for (double y : params.curve_years) {
    rep.failure_curve.emplace_back(y, rep.system_failure_at(y));
  }
  return rep;
}

}  // namespace nbtisim::aging
