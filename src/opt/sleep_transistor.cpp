#include "opt/sleep_transistor.h"

#include <cmath>
#include <stdexcept>

namespace nbtisim::opt {

namespace {

/// The header ST's stress: its gate is held at 0 for the whole active mode
/// and at 1 in standby to cut the rail.
nbti::DeviceStress header_st_stress(const StParams& st) {
  nbti::DeviceStress stress;
  stress.active_stress_prob = 1.0;
  stress.standby = nbti::StandbyMode::Relaxed;
  stress.vgs = st.vdd;
  stress.vth0 = st.vth_st;
  return stress;
}

std::vector<double> log_spaced(double t_min, double t_max, int n_points) {
  if (n_points < 2 || t_min <= 0.0 || t_max <= t_min) {
    throw std::invalid_argument("degradation series: bad sampling spec");
  }
  std::vector<double> t(n_points);
  const double step = std::log(t_max / t_min) / (n_points - 1);
  for (int i = 0; i < n_points; ++i) t[i] = t_min * std::exp(step * i);
  return t;
}

}  // namespace

double st_delta_vth(const nbti::RdParams& rd, const nbti::ModeSchedule& schedule,
                    double total_time, const StParams& st) {
  return nbti::DeviceAging(rd).delta_vth(header_st_stress(st), schedule,
                                         total_time);
}

StSizing size_sleep_transistor(const nbti::RdParams& rd,
                               const nbti::ModeSchedule& schedule,
                               double total_time, double i_on,
                               const StParams& st) {
  if (i_on <= 0.0) {
    throw std::invalid_argument("size_sleep_transistor: non-positive I_ON");
  }
  if (st.sigma <= 0.0 || st.vdd - st.vth_st <= 0.0 ||
      st.vdd - st.vth_low <= 0.0) {
    throw std::invalid_argument("size_sleep_transistor: no voltage headroom");
  }
  StSizing s;
  // eq. (28) with the alpha-power first-order term restored.
  s.v_st = st.sigma * (st.vdd - st.vth_low) / st.alpha;
  // eq. (30): linear-region current balance through the ST.
  s.wl_base = i_on / (st.mu_cox * (st.vdd - st.vth_st) * s.v_st);
  s.dvth_st = st_delta_vth(rd, schedule, total_time, st);
  if (st.vdd - st.vth_st - s.v_st <= s.dvth_st) {
    throw std::invalid_argument(
        "size_sleep_transistor: ST aging exhausts gate overdrive");
  }
  // eq. (31): upsize so the end-of-life drop still meets V_ST.
  s.wl_nbti_aware =
      (1.0 + s.dvth_st / (st.vdd - st.vth_st - s.v_st)) * s.wl_base;
  return s;
}

std::vector<StDegradationPoint> st_circuit_degradation_series(
    const aging::AgingAnalyzer& analyzer, StStyle style, const StParams& st,
    double t_min, double t_max, int n_points) {
  const std::vector<double> times = log_spaced(t_min, t_max, n_points);
  const nbti::ModeSchedule& schedule = analyzer.conditions().schedule;
  const nbti::RdParams& rd = analyzer.conditions().rd;

  // The ST device's stress descriptor is horizon-independent: build the
  // model and context once and only re-evaluate the horizon per point
  // (bitwise what st_delta_vth computes — delta_vth(stress, ...) is
  // make_context + delta_vth(ctx, t)).
  const nbti::DeviceAging st_model(rd);
  const nbti::DeviceAging::StressContext st_ctx =
      st_model.make_context(header_st_stress(st), schedule);

  const double sigma0_percent = 100.0 * st.sigma;
  std::vector<StDegradationPoint> series;
  series.reserve(times.size());
  for (double t : times) {
    StDegradationPoint pt;
    pt.time = t;
    // Gated logic: no PMOS is negatively biased in standby -> best case.
    // (arrival-only aged_critical_delay; same value as analyze().percent())
    const double fresh = analyzer.fresh_critical_delay();
    const double aged =
        analyzer.aged_critical_delay(aging::StandbyPolicy::all_relaxed(), t);
    pt.logic_percent = fresh > 0.0 ? 100.0 * (aged - fresh) / fresh : 0.0;

    // ST drop contribution.
    switch (style) {
      case StStyle::Footer:
        // NMOS footer is PBTI-immune in this model: constant penalty.
        pt.st_percent = sigma0_percent;
        break;
      case StStyle::Header: {
        const double dvth = st_model.delta_vth(st_ctx, t);
        const double headroom = st.vdd - st.vth_st;
        pt.st_percent = sigma0_percent * headroom /
                        std::max(1e-9, headroom - dvth);
        break;
      }
      case StStyle::FooterAndHeader: {
        const double dvth = st_model.delta_vth(st_ctx, t);
        const double headroom = st.vdd - st.vth_st;
        pt.st_percent =
            sigma0_percent +
            sigma0_percent * headroom / std::max(1e-9, headroom - dvth);
        break;
      }
    }
    pt.total_percent = pt.logic_percent + pt.st_percent;
    series.push_back(pt);
  }
  return series;
}

std::vector<StDegradationPoint> no_st_degradation_series(
    const aging::AgingAnalyzer& analyzer, double t_min, double t_max,
    int n_points) {
  const std::vector<double> times = log_spaced(t_min, t_max, n_points);
  std::vector<StDegradationPoint> series;
  series.reserve(times.size());
  for (double t : times) {
    StDegradationPoint pt;
    pt.time = t;
    const double fresh = analyzer.fresh_critical_delay();
    const double aged =
        analyzer.aged_critical_delay(aging::StandbyPolicy::all_stressed(), t);
    pt.logic_percent = fresh > 0.0 ? 100.0 * (aged - fresh) / fresh : 0.0;
    pt.st_percent = 0.0;
    pt.total_percent = pt.logic_percent;
    series.push_back(pt);
  }
  return series;
}

}  // namespace nbtisim::opt
