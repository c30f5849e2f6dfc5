#include "aging/multi.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "sta/slew_sta.h"

namespace nbtisim::aging {

MultiAgingReport analyze_multi_mechanism(const AgingAnalyzer& analyzer,
                                         const StandbyPolicy& policy,
                                         const MultiAgingParams& params,
                                         std::optional<double> total_time) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  const tech::Library& lib = analyzer.sta().library();
  const AgingConditions& cond = analyzer.conditions();
  const sim::SignalStats& stats = analyzer.signal_stats();
  const double horizon = total_time.value_or(cond.total_time);
  // Every check is written so NaN fails too: a NaN ratio would turn every
  // NMOS shift into NaN, and a NaN clock every HCI shift.
  auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("analyze_multi_mechanism: ") +
                                  what);
    }
  };
  require(!params.enable_pbti ||
              (std::isfinite(params.pbti.ratio) && params.pbti.ratio >= 0.0),
          "pbti.ratio must be finite and >= 0");
  require(std::isfinite(params.clock_hz) && params.clock_hz >= 0.0,
          "clock_hz must be finite and >= 0");
  require(std::isfinite(horizon) && horizon >= 0.0,
          "total_time must be finite and >= 0");

  MultiAgingReport rep;
  rep.pmos_dvth = analyzer.gate_dvth(policy, horizon);
  rep.nmos_dvth.assign(nl.num_gates(), 0.0);

  // Worst NMOS shift per gate, from a per-call (uncached) NMOS stress set.
  // Scaling the maximum by the validated non-negative ratio equals the
  // maximum of the scaled shifts bit for bit: rounded multiplication by a
  // non-negative constant is monotone, and every dVth is >= 0.
  std::vector<double> worst_nmos;
  if (params.enable_pbti) {
    worst_nmos = analyzer.worst_per_gate(
        analyzer.build_stress(policy, tech::Channel::Nmos), horizon);
  }

  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::Gate& g = nl.gate(gi);
    const double worst_pbti =
        params.enable_pbti ? params.pbti.ratio * worst_nmos[gi] : 0.0;

    double hci = 0.0;
    if (params.enable_hci) {
      hci = nbti::hci_delta_vth(params.hci, stats.activity[g.output],
                                params.clock_hz, cond.schedule, horizon);
    }
    rep.nmos_dvth[gi] = worst_pbti + hci;
  }

  const sta::SlewStaEngine slew(nl, lib);
  const double temp = cond.schedule.temp_active;
  rep.fresh_delay =
      slew.analyze(temp, {}, cond.gate_vth_offsets).max_delay;
  rep.nbti_only_delay =
      slew.analyze(temp, rep.pmos_dvth, cond.gate_vth_offsets).max_delay;
  rep.aged_delay = slew.analyze(temp, rep.pmos_dvth, cond.gate_vth_offsets,
                                rep.nmos_dvth)
                       .max_delay;
  return rep;
}

}  // namespace nbtisim::aging
