#include "nbti/device_aging.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
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
  // Every field but the S_n prefix, device by device.  Every check is
  // written so NaN and inf fail too.
  for (std::size_t i = 0; i < stresses.size(); ++i) {
    const DeviceStress& stress = stresses[i];
    if (!std::isfinite(stress.vgs)) {
      throw std::invalid_argument("make_contexts: vgs must be finite");
    }
    if (!std::isfinite(stress.vth0)) {
      throw std::invalid_argument("make_contexts: vth0 must be finite");
    }
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
    if (!(std::isfinite(ctx.eq_period) && ctx.eq_period > 0.0)) {
      throw std::invalid_argument(
          "make_contexts: equivalent period must be finite and > 0");
    }
    ctx.ac = AcStress{eq.duty(), ctx.eq_period};
    ctx.kv = kv_at(params_, ctx.temp_active, ctx.vgs, ctx.vth0);
    ctx.period_pow = std::pow(ctx.ac.period, 0.25);
  }
  // A prefix is a pure function of its duty (every lane of make_sn_prefixes
  // runs the same operations), so the recursion runs once per distinct duty
  // and each device looks its duty up: a circuit's signal probabilities
  // repeat, and a build holds several devices per distinct duty.  Duties
  // are keyed by bit pattern; an always-zero device asks for duty 0 (key 0),
  // whose prefix is the default one.  make_sn_prefixes validates every
  // distinct duty, so every device's.
  const auto key_of = [](const StressContext& ctx) {
    return ctx.always_zero ? std::uint64_t{0}
                           : std::bit_cast<std::uint64_t>(ctx.ac.duty);
  };
  std::vector<std::uint64_t> keys(out.size());
  std::transform(out.begin(), out.end(), keys.begin(), key_of);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<double> duties(keys.size());
  std::transform(keys.begin(), keys.end(), duties.begin(),
                 [](std::uint64_t key) { return std::bit_cast<double>(key); });
  std::vector<SnPrefix> prefixes(duties.size());
  make_sn_prefixes(duties, prefixes);
  for (StressContext& ctx : out) {
    const auto k = std::lower_bound(keys.begin(), keys.end(), key_of(ctx));
    ctx.prefix = prefixes[k - keys.begin()];
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
