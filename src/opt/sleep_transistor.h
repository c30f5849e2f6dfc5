/// \file sleep_transistor.h
/// \brief NBTI-aware sleep-transistor sizing and circuit-level impact of
///        sleep-transistor insertion — paper Section 4.4, eqs. (25)-(31),
///        Figs. 8-11.
///
/// A PMOS header sleep transistor (ST) is ON (gate at 0, i.e. Vgs = -Vdd)
/// exactly while the circuit is *active* — so, unlike the logic it gates,
/// the ST is NBTI-stressed during active time and relaxed during standby.
/// Its threshold degradation raises the virtual-rail drop V_ST, slowing the
/// gated logic over the lifetime.  The paper's sizing rule adds margin:
///
///   V_ST < sigma (Vdd - Vth_low) / alpha                       (27)-(28)
///   (W/L)_ST > I_ON / (mu_p Cox (Vdd - Vth_ST) V_ST)           (29)-(30)
///   (W/L)_NBTI = (1 + dVth_ST / (Vdd - Vth_ST - V_ST)) (W/L)   (31)
///
/// The circuit-level analysis combines the (almost fully relaxed) internal
/// logic aging with the growing ST drop to produce Fig. 11's with/without-ST
/// degradation comparison for footer / header / footer+header styles.
#pragma once

#include <utility>
#include <vector>

#include "aging/aging.h"
#include "nbti/device_aging.h"

namespace nbtisim::opt {

/// Sleep-transistor electrical/sizing knobs.
struct StParams {
  double vth_st = 0.30;   ///< initial |Vth| of the PMOS ST [V]
  double sigma = 0.05;    ///< allowed fractional delay penalty at time 0
  double vth_low = 0.22;  ///< logic threshold (low-Vth module) [V]
  double mu_cox = 1.1e-4; ///< mu_p * Cox for the ST [A/V^2 per W/L]
  double alpha = 1.3;     ///< velocity-saturation index
  double vdd = 1.0;       ///< supply [V]
};

/// dVth of the PMOS ST itself after \p total_time: stressed during active
/// mode (gate at 0), relaxed during standby (gate at 1) — Fig. 8.  One
/// nbti::DeviceAging::delta_vth, the path the with-ST series evaluates too.
double st_delta_vth(const nbti::RdParams& rd, const nbti::ModeSchedule& schedule,
                    double total_time, const StParams& st);

/// Complete sizing computation.
struct StSizing {
  double v_st = 0.0;          ///< allowed virtual-rail drop [V]
  double wl_base = 0.0;       ///< (W/L) from eq. (30)
  double dvth_st = 0.0;       ///< lifetime ST threshold degradation [V]
  double wl_nbti_aware = 0.0; ///< enlarged (W/L) from eq. (31)

  /// Relative area increase required by NBTI awareness [%] — Fig. 9.
  double wl_increase_percent() const {
    return wl_base > 0.0 ? 100.0 * (wl_nbti_aware - wl_base) / wl_base : 0.0;
  }
};

/// Sizes a PMOS ST for peak active current \p i_on [A] with NBTI margin.
/// \throws std::invalid_argument for non-positive current or headroom
StSizing size_sleep_transistor(const nbti::RdParams& rd,
                               const nbti::ModeSchedule& schedule,
                               double total_time, double i_on,
                               const StParams& st);

/// Sleep-transistor insertion style (paper Fig. 10).
enum class StStyle : unsigned char {
  Footer,          ///< NMOS footer: no ST aging; internal nodes float high
  Header,          ///< PMOS header: ST ages; internal nodes float low
  FooterAndHeader, ///< both rails gated: double drop, header still ages
};

/// One sample of the with-ST degradation series.
struct StDegradationPoint {
  double time = 0.0;            ///< [s]
  double logic_percent = 0.0;   ///< internal-logic aging contribution [%]
  double st_percent = 0.0;      ///< ST-drop contribution (sigma(t)) [%]
  double total_percent = 0.0;   ///< total delay vs. fresh no-ST circuit [%]
};

/// Delay penalty of the ST drop [%] once the header has shifted by
/// \p dvth_st: 100 sigma for the footer, which does not age; for the header
/// the eq. (29) current balance inflates V_ST,
///   V_ST(t) = V_ST(0) * (Vdd - Vth_ST) / (Vdd - Vth_ST - dVth_ST(t)),
/// and footer+header pays the footer's constant drop on top.
double st_drop_percent(StStyle style, const StParams& st, double dvth_st);

/// Circuit degradation over time with an inserted ST of style \p style and
/// time-0 penalty \p st.sigma (Fig. 11): per point of
/// analyzer.degradation_series under the all-relaxed policy (ST insertion
/// leaves no PMOS negatively biased), plus st_drop_percent at the header's
/// st_delta_vth.  The "w/o ST" curve is the all-stressed degradation_series.
/// \throws std::invalid_argument for a bad sampling spec (see
///         AgingAnalyzer::degradation_series)
std::vector<StDegradationPoint> st_circuit_degradation_series(
    const aging::AgingAnalyzer& analyzer, StStyle style, const StParams& st,
    double t_min, double t_max, int n_points);

}  // namespace nbtisim::opt
