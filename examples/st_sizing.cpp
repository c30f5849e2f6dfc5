/// \file st_sizing.cpp
/// \brief NBTI-aware sleep-transistor sizing calculator.
///
/// Given a block's peak active current, a delay-penalty budget sigma, the
/// sleep-transistor threshold and an operating profile, prints the eq.-(30)
/// base size, the lifetime ST threshold degradation, and the NBTI-aware
/// eq.-(31) size — plus a sensitivity sweep around the chosen point.
///
/// Usage: st_sizing [i_on_mA] [sigma_%] [vth_st_V] [active:standby]
///   e.g. st_sizing 2.5 3 0.25 1:4

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "opt/sleep_transistor.h"
#include "tech/units.h"

using namespace nbtisim;

int main(int argc, char** argv) {
  const double i_on_ma = argc > 1 ? std::atof(argv[1]) : 1.0;
  const double sigma_pct = argc > 2 ? std::atof(argv[2]) : 5.0;
  const double vth_st = argc > 3 ? std::atof(argv[3]) : 0.30;
  double active_parts = 1.0, standby_parts = 9.0;
  if (argc > 4) {
    const std::string ras = argv[4];
    const std::size_t colon = ras.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "RAS must look like '1:9'\n");
      return 1;
    }
    active_parts = std::atof(ras.substr(0, colon).c_str());
    standby_parts = std::atof(ras.substr(colon + 1).c_str());
  }
  // Written so NaN and infinities fail too.
  const bool ras_ok = std::isfinite(active_parts) && active_parts >= 0.0 &&
                      std::isfinite(standby_parts) && standby_parts >= 0.0 &&
                      active_parts + standby_parts > 0.0;
  if (!(std::isfinite(i_on_ma) && i_on_ma > 0.0) ||
      !(std::isfinite(sigma_pct) && sigma_pct > 0.0) ||
      !(vth_st > 0.0 && vth_st < 0.9) || !ras_ok) {
    std::fprintf(stderr,
                 "usage: st_sizing [i_on_mA>0] [sigma_%%>0] [0<vth_st<0.9] "
                 "[a:s]\n");
    return 1;
  }

  const nbti::RdParams rd;
  const auto sched = nbti::ModeSchedule::from_ras(active_parts, standby_parts,
                                                  1000.0, 400.0, 330.0);
  opt::StParams st;
  st.sigma = sigma_pct / 100.0;
  st.vth_st = vth_st;

  std::printf("NBTI-aware PMOS sleep-transistor sizing\n");
  std::printf("  I_ON = %.2f mA, sigma = %.1f%%, Vth_ST = %.2f V, "
              "RAS = %.0f:%.0f, lifetime 10 years\n\n",
              i_on_ma, sigma_pct, vth_st, active_parts, standby_parts);

  try {
    const opt::StSizing s = opt::size_sleep_transistor(
        rd, sched, kTenYears, i_on_ma * 1e-3, st);
    std::printf("  allowed virtual-rail drop V_ST : %8.1f mV\n", to_mV(s.v_st));
    std::printf("  base size (W/L), eq. (30)      : %8.1f\n", s.wl_base);
    std::printf("  lifetime ST dVth               : %8.1f mV\n",
                to_mV(s.dvth_st));
    std::printf("  NBTI-aware size (W/L), eq.(31) : %8.1f  (+%.2f%%)\n",
                s.wl_nbti_aware, s.wl_increase_percent());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sizing failed: %s\n", e.what());
    return 1;
  }

  std::printf("\nSensitivity (upsize %% needed):\n");
  std::printf("  %-12s", "Vth_ST \\ RAS");
  for (const char* r : {"9:1", "1:1", "1:9"}) std::printf("%8s", r);
  std::printf("\n");
  for (double v : {0.20, 0.30, 0.40}) {
    std::printf("  %-12.2f", v);
    for (auto [a, b] : {std::pair{9.0, 1.0}, {1.0, 1.0}, {1.0, 9.0}}) {
      opt::StParams p = st;
      p.vth_st = v;
      const auto sc = nbti::ModeSchedule::from_ras(a, b, 1000.0, 400.0, 330.0);
      const auto sz =
          opt::size_sleep_transistor(rd, sc, kTenYears, i_on_ma * 1e-3, p);
      std::printf("%8.2f", sz.wl_increase_percent());
    }
    std::printf("\n");
  }
  return 0;
}
