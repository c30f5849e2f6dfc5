#include "nbti/device_aging.h"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace nbtisim::nbti {

double DeviceAging::delta_vth(const DeviceStress& stress,
                              const ModeSchedule& schedule,
                              double total_time) const {
  return delta_vth(context(stress, schedule), total_time);
}

void DeviceAging::make_contexts(std::span<const DeviceStress> stresses,
                                const ModeSchedule& schedule,
                                std::span<StressContext> out) const {
  if (out.size() != stresses.size()) {
    throw std::invalid_argument("make_contexts: size mismatch");
  }
  // Every field but the S_n prefix, device by device; then all prefixes in
  // one interleaved batch (an always-zero device asks for duty 0, whose
  // prefix is the default one).
  std::vector<double> duties(stresses.size(), 0.0);
  for (std::size_t i = 0; i < stresses.size(); ++i) {
    const DeviceStress& stress = stresses[i];
    StressContext& ctx = out[i];
    ctx = StressContext{};
    ctx.schedule_period = schedule.period();
    ctx.temp_active = schedule.temp_active;
    ctx.vgs = stress.vgs;
    ctx.vth0 = stress.vth0;

    const EquivalentCycle eq = equivalent_cycle(params_, stress, schedule);
    if (eq.stress_time <= 0.0) {
      ctx.always_zero = true;
      continue;
    }
    ctx.eq_period = eq.period();
    ctx.ac = AcStress{eq.duty(), eq.period()};
    if (ctx.ac.period <= 0.0) {
      throw std::invalid_argument("make_contexts: non-positive period");
    }
    ctx.kv = kv_at(params_, ctx.temp_active, ctx.vgs, ctx.vth0);
    ctx.period_pow = std::pow(ctx.ac.period, 0.25);
    duties[i] = ctx.ac.duty;
  }
  std::vector<SnPrefix> prefixes(duties.size());
  make_sn_prefixes(duties, prefixes);
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    out[i].prefix = prefixes[i];
  }
}

DeviceAging::StressContext DeviceAging::context(
    const DeviceStress& stress, const ModeSchedule& schedule) const {
  StressContext ctx;
  make_contexts({&stress, 1}, schedule, {&ctx, 1});
  return ctx;
}

double DeviceAging::delta_vth(const StressContext& ctx,
                              double total_time) const {
  if (!(total_time >= 0.0)) {  // NaN fails too
    throw std::invalid_argument("DeviceAging: total time negative or NaN");
  }
  if (total_time == 0.0 || ctx.always_zero) return 0.0;

  // ac_delta_vth over the equivalent time, with K_v, the S_n prefix and
  // period^(1/4) taken from the context: the same rounding steps.
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
  ModeSchedule hot = schedule;
  hot.temp_standby = hot.temp_active;
  return delta_vth(stress, hot, total_time);
}

}  // namespace nbtisim::nbti
