#include "opt/sleep_transistor.h"

#include <algorithm>
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
  // Written so NaN fails too.
  if (!(i_on > 0.0)) {
    throw std::invalid_argument("size_sleep_transistor: I_ON not > 0");
  }
  if (!(st.sigma > 0.0 && st.vdd - st.vth_st > 0.0 &&
        st.vdd - st.vth_low > 0.0)) {
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

double st_drop_percent(StStyle style, const StParams& st, double dvth_st) {
  const double sigma0_percent = 100.0 * st.sigma;
  // The NMOS footer is PBTI-immune in this model: a constant penalty.
  if (style == StStyle::Footer) return sigma0_percent;
  const double headroom = st.vdd - st.vth_st;
  const double header =
      sigma0_percent * headroom / std::max(1e-9, headroom - dvth_st);
  return style == StStyle::Header ? header : sigma0_percent + header;
}

std::vector<StDegradationPoint> st_circuit_degradation_series(
    const aging::AgingAnalyzer& analyzer, StStyle style, const StParams& st,
    double t_min, double t_max, int n_points) {
  // Gated logic: no PMOS is negatively biased in standby -> best case.
  const std::vector<std::pair<double, double>> logic =
      analyzer.degradation_series(aging::StandbyPolicy::all_relaxed(), t_min,
                                  t_max, n_points);
  // The ST device's context is horizon-independent: built once, evaluated
  // per point.
  const nbti::DeviceAging st_model(analyzer.conditions().rd);
  const nbti::DeviceAging::StressContext st_ctx =
      st_model.context(header_st_stress(st), analyzer.conditions().schedule);
  std::vector<StDegradationPoint> series;
  series.reserve(logic.size());
  for (const auto& [t, logic_percent] : logic) {
    const double drop =
        st_drop_percent(style, st, st_model.delta_vth(st_ctx, t));
    series.push_back({t, logic_percent, drop, logic_percent + drop});
  }
  return series;
}

}  // namespace nbtisim::opt
