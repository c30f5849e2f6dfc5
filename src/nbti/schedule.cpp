#include "nbti/schedule.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace nbtisim::nbti {

ModeSchedule ModeSchedule::from_ras(double active_parts, double standby_parts,
                                    double period_s, double temp_active_k,
                                    double temp_standby_k) {
  // Every check is written so NaN fails too.
  auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("ModeSchedule::from_ras: ") +
                                  what);
    }
  };
  require(std::isfinite(active_parts) && active_parts >= 0.0,
          "active parts must be finite and >= 0");
  require(std::isfinite(standby_parts) && standby_parts >= 0.0,
          "standby parts must be finite and >= 0");
  require(active_parts + standby_parts > 0.0,
          "active + standby parts must be > 0");
  require(std::isfinite(period_s) && period_s > 0.0,
          "period must be finite and > 0");
  require(std::isfinite(temp_active_k), "active temperature must be finite");
  require(std::isfinite(temp_standby_k),
          "standby temperature must be finite");
  const double total = active_parts + standby_parts;
  return ModeSchedule{period_s * active_parts / total,
                      period_s * standby_parts / total, temp_active_k,
                      temp_standby_k};
}

EquivalentCycle equivalent_cycle(const RdParams& p, const DeviceStress& stress,
                                 const ModeSchedule& schedule) {
  // Every check is written so NaN and inf fail too.
  auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("equivalent_cycle: ") + what);
    }
  };
  require(std::isfinite(schedule.t_active) && schedule.t_active >= 0.0,
          "t_active must be finite and >= 0");
  require(std::isfinite(schedule.t_standby) && schedule.t_standby >= 0.0,
          "t_standby must be finite and >= 0");
  require(schedule.period() > 0.0, "t_active + t_standby must be > 0");
  require(std::isfinite(schedule.temp_active) && schedule.temp_active > 0.0,
          "temp_active must be finite and > 0");
  require(std::isfinite(schedule.temp_standby) && schedule.temp_standby > 0.0,
          "temp_standby must be finite and > 0");
  require(stress.active_stress_prob >= 0.0 && stress.active_stress_prob <= 1.0,
          "active_stress_prob must lie in [0, 1]");
  require(stress.standby_stress_fraction <= 1.0,
          "standby_stress_fraction must be <= 1");
  const double d_ratio =
      diffusion_ratio(p, schedule.temp_standby, schedule.temp_active);

  EquivalentCycle eq;
  eq.stress_time = stress.active_stress_prob * schedule.t_active;
  eq.recovery_time = (1.0 - stress.active_stress_prob) * schedule.t_active;
  const double sf = stress.standby_fraction();
  eq.stress_time += sf * schedule.t_standby * d_ratio;
  eq.recovery_time += (1.0 - sf) * schedule.t_standby;
  return eq;
}

}  // namespace nbtisim::nbti
