#include "nbti/device_aging.h"

#include <cmath>
#include <stdexcept>

namespace nbtisim::nbti {

double DeviceAging::eval(const DeviceStress& stress,
                         const ModeSchedule& schedule, double total_time,
                         bool worst_case_temp) const {
  if (total_time < 0.0) {
    throw std::invalid_argument("DeviceAging: negative total time");
  }
  if (total_time == 0.0) return 0.0;

  ModeSchedule sched = schedule;
  if (worst_case_temp) sched.temp_standby = sched.temp_active;

  const EquivalentCycle eq = equivalent_cycle(params_, stress, sched);
  if (eq.stress_time <= 0.0) return 0.0;

  const double n_cycles = total_time / sched.period();
  const AcStress ac{eq.duty(), eq.period()};
  // The AC model consumes (pattern, total equivalent time); keep the cycle
  // count identical to the wall-clock cycle count.
  const double total_equivalent = n_cycles * eq.period();
  return ac_delta_vth(params_, sched.temp_active, ac, total_equivalent,
                      stress.vgs, stress.vth0);
}

double DeviceAging::delta_vth(const DeviceStress& stress,
                              const ModeSchedule& schedule,
                              double total_time) const {
  return eval(stress, schedule, total_time, /*worst_case_temp=*/false);
}

DeviceAging::StressContext DeviceAging::make_context(
    const DeviceStress& stress, const ModeSchedule& schedule) const {
  StressContext ctx;
  ctx.schedule_period = schedule.period();
  ctx.temp_active = schedule.temp_active;
  ctx.vgs = stress.vgs;
  ctx.vth0 = stress.vth0;

  const EquivalentCycle eq = equivalent_cycle(params_, stress, schedule);
  if (eq.stress_time <= 0.0) {
    ctx.always_zero = true;
    return ctx;
  }
  ctx.eq_period = eq.period();
  ctx.ac = AcStress{eq.duty(), eq.period()};
  if (ctx.ac.period <= 0.0) {
    throw std::invalid_argument("make_context: non-positive period");
  }
  ctx.prefix = make_sn_prefix(ctx.ac.duty);
  ctx.kv = kv_at(params_, ctx.temp_active, ctx.vgs, ctx.vth0);
  ctx.period_pow = std::pow(ctx.ac.period, 0.25);
  return ctx;
}

double DeviceAging::delta_vth(const StressContext& ctx,
                              double total_time) const {
  if (total_time < 0.0) {
    throw std::invalid_argument("DeviceAging: negative total time");
  }
  if (total_time == 0.0 || ctx.always_zero) return 0.0;

  // Mirror eval() + ac_delta_vth() operation by operation: the precomputed
  // quantities must not change a single rounding step.
  const double n_cycles = total_time / ctx.schedule_period;
  const double total_equivalent = n_cycles * ctx.eq_period;
  if (ctx.ac.duty == 0.0 || total_equivalent == 0.0) return 0.0;
  if (ctx.ac.duty == 1.0) {
    return dc_delta_vth(params_, ctx.temp_active, total_equivalent, ctx.vgs,
                        ctx.vth0);
  }

  const double n = std::max(1.0, total_equivalent / ctx.ac.period);
  const double sn = sn_closed(ctx.prefix, n);
  return ctx.kv * sn * ctx.period_pow;
}

double DeviceAging::delta_vth_worst_case_temp(const DeviceStress& stress,
                                              const ModeSchedule& schedule,
                                              double total_time) const {
  return eval(stress, schedule, total_time, /*worst_case_temp=*/true);
}

}  // namespace nbtisim::nbti
