#include "nbti/other_mechanisms.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace nbtisim::nbti {

double hci_delta_vth(const HciParams& hci, double activity, double clock_hz,
                     const ModeSchedule& schedule, double total_time) {
  if (activity < 0.0 || activity > 1.0) {
    throw std::invalid_argument("hci_delta_vth: activity outside [0,1]");
  }
  if (clock_hz < 0.0 || total_time < 0.0) {
    throw std::invalid_argument("hci_delta_vth: negative rate or time");
  }
  const double active_fraction =
      schedule.period() > 0.0 ? schedule.t_active / schedule.period() : 0.0;
  const double events = activity * clock_hz * active_fraction * total_time;
  if (events <= 0.0) return 0.0;
  const double temp_scale =
      1.0 + hci.temp_coeff * (schedule.temp_active - hci.temp_ref);
  return std::max(0.0, hci.k_hci * temp_scale) *
         std::pow(events, hci.exponent);
}

double tddb_mttf(const TddbParams& tddb, double vdd, double temp_k) {
  if (vdd <= 0.0 || temp_k <= 0.0 || tddb.scale_s <= 0.0) {
    throw std::invalid_argument("tddb_mttf: non-positive vdd/temp/scale");
  }
  // (1/V)^(a - bT): higher field or hotter oxide accelerates breakdown.
  const double v_exponent = tddb.a + tddb.b * temp_k;
  const double activation =
      (tddb.x + tddb.y / temp_k + tddb.z * temp_k) / (kBoltzmannEv * temp_k);
  return tddb.scale_s * std::pow(1.0 / vdd, v_exponent) * std::exp(activation);
}

double em_mttf(const EmParams& em, double current_a, double temp_k) {
  if (current_a < 0.0 || temp_k <= 0.0 || em.scale_s <= 0.0 ||
      em.ref_current_a <= 0.0) {
    throw std::invalid_argument("em_mttf: bad current/temp/params");
  }
  if (current_a == 0.0) return std::numeric_limits<double>::infinity();
  return em.scale_s * std::pow(current_a / em.ref_current_a, -em.n) *
         std::exp(em.ea / (kBoltzmannEv * temp_k));
}

}  // namespace nbtisim::nbti
