/// \file bench_ext_techniques.cpp
/// \brief Extension studies beyond the paper's headline experiments, all
///        built from techniques its related-work section discusses:
///   (1) alternating IVC (Abella et al. [23]): static MLV vs MLV-set
///       rotation vs complement-pair rotation;
///   (2) dual-Vth assignment ([30]/[44]): leakage + NBTI co-benefit;
///   (3) NBTI-aware gate sizing (Paul et al. [22]): area vs guard-band;
///   (4) control-point insertion ([9]/[10]): realizing the Table-4 INC
///       potential with per-driver penalties;
///   (5) trace-driven aging: the two-mode RAS abstraction vs a full
///       task-set thermal trace.

#include <cstdio>

#include "bench_util.h"
#include "netlist/generators.h"
#include "nbti/trace.h"
#include "opt/dual_vth.h"
#include "opt/inc_insertion.h"
#include "opt/ivc.h"
#include "opt/sizing.h"
#include "thermal/thermal.h"
#include "tech/units.h"

using namespace nbtisim;

namespace {

aging::AgingConditions conditions(double t_standby) {
  aging::AgingConditions c;
  c.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, t_standby);
  c.sp_vectors = 2048;
  return c;
}

void ext_alternating_ivc(const tech::Library& lib) {
  std::printf("\n--- (1) alternating IVC (c432, T_standby = 400 K) ---\n");
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  const aging::AgingAnalyzer an(nl, lib, conditions(400.0));
  const leakage::LeakageAnalyzer leak(nl, lib, 330.0);
  const opt::AlternatingIvcResult r = opt::evaluate_alternating_ivc(
      an, leak, {.population = 48, .max_rounds = 12, .max_set_size = 8});
  std::printf("%-28s %10s %14s %12s\n", "strategy", "ddelay%", "maxdVth[mV]",
              "leak[uA]");
  std::printf("%-28s %10.3f %14.2f %12.2f\n", "static best MLV",
              r.static_percent, to_mV(r.static_max_dvth), 0.0);
  std::printf("%-28s %10.3f %14.2f %12.2f\n", "rotate MLV set",
              r.rotating_percent, to_mV(r.rotating_max_dvth),
              1e6 * r.mean_rotation_leakage);
  std::printf("%-28s %10.3f %14.2f %12.2f\n", "rotate MLV + complement",
              r.complement_percent, to_mV(r.complement_max_dvth),
              1e6 * r.complement_leakage);
  std::printf("Complement rotation cuts the worst device dVth by %.1f%% "
              "(Penelope's metric)\nat a leakage premium — MLV-set rotation "
              "is nearly free but barely diversifies.\n",
              r.complement_max_dvth_reduction_percent());
}

void ext_dual_vth(const tech::Library& lib) {
  std::printf("\n--- (2) dual-Vth assignment (budget 2%% fresh delay) ---\n");
  std::printf("%-8s %8s %10s %12s %12s %12s\n", "circuit", "high%", "delay+%",
              "leak-sav%", "aging-low%", "aging-dual%");
  for (const char* name : {"c432", "c880", "c1908"}) {
    const netlist::Netlist nl = netlist::iscas85_like(name);
    const aging::AgingAnalyzer an(nl, lib, conditions(330.0));
    const leakage::LeakageAnalyzer leak(nl, lib, 330.0);
    const opt::DualVthResult r = opt::assign_dual_vth(
        an, leak, {.high_vth_offset = 0.10, .delay_budget_percent = 2.0});
    std::printf("%-8s %8.1f %10.2f %12.1f %12.2f %12.2f\n", name,
                100.0 * r.high_fraction(),
                100.0 * (r.fresh_delay_dual / r.fresh_delay_low - 1.0),
                r.leakage_saving_percent(), r.aging_low_percent,
                r.aging_dual_percent);
  }
  std::printf("High-Vth gates leak exponentially less AND age less "
              "(Section 4.1's co-benefit).\n");
}

void ext_sizing(const tech::Library& lib) {
  std::printf("\n--- (3) NBTI-aware sizing vs guard-banding (T_s = 400 K) ---\n");
  std::printf("%-8s %12s %10s %10s %10s %8s\n", "circuit", "guardband%",
              "area+%", "moves", "agedB4%", "met");
  for (const char* name : {"c432", "c880"}) {
    const netlist::Netlist nl = netlist::iscas85_like(name);
    const aging::AgingAnalyzer an(nl, lib, conditions(400.0));
    const opt::SizingResult r = opt::size_for_lifetime(
        an, aging::StandbyPolicy::all_stressed(),
        {.spec_margin_percent = 3.0, .size_step = 0.5, .max_moves = 600});
    std::printf("%-8s %12.2f %10.2f %10d %10.2f %8s\n", name,
                r.guard_band_percent(), r.area_overhead_percent(), r.moves,
                100.0 * (r.aged_before / r.fresh_delay - 1.0),
                r.met ? "yes" : "no");
  }
  std::printf("Sizing buys back the lifetime margin with a small area "
              "overhead instead of a\nclock guard-band (Paul et al. [22] "
              "style).\n");
}

void ext_inc_insertion(const tech::Library& lib) {
  std::printf("\n--- (4) control-point insertion (T_standby = 400 K) ---\n");
  std::printf("%-8s %8s %12s %12s %12s %10s\n", "circuit", "points",
              "aging-b4%", "aging-aft%", "saving%", "t0-pen%");
  for (const char* name : {"c432", "c880"}) {
    const netlist::Netlist nl = netlist::iscas85_like(name);
    const aging::AgingAnalyzer an(nl, lib, conditions(400.0));
    const opt::IncInsertionResult r =
        opt::insert_control_points(an, {.max_control_points = 30});
    std::printf("%-8s %8zu %12.2f %12.2f %12.1f %10.2f\n", name,
                r.controlled.size(), r.aging_before, r.aging_after,
                r.aging_saving_percent(), r.time0_penalty_percent());
  }
  std::printf("Greedy accept-if-improves selection; compare against the "
              "Table-4 INC bound.\n");
}

void ext_trace_aging() {
  std::printf("\n--- (5) full thermal trace vs two-mode RAS abstraction ---\n");
  const nbti::RdParams rd;
  const thermal::RcThermalModel model;
  std::printf("%-8s %14s %14s %10s\n", "seed", "trace [mV]", "2-mode [mV]",
              "err [%]");
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const auto tasks = thermal::random_task_set(60, 10.0, 130.0, 0.05, 0.2,
                                                seed);
    const auto samples =
        model.simulate(tasks, 0.005, model.steady_state(60.0));
    auto trace = nbti::trace_from_samples(samples, 0.5);
    for (nbti::StressInterval& iv : trace) {
      if (iv.temperature < 360.0) iv.stress_prob = 1.0;  // idle & stressed
    }
    const double full =
        nbti::trace_delta_vth(rd, trace, 400.0, kTenYears, 1.0, 0.22);
    const nbti::ModeSchedule abs2 = nbti::two_mode_abstraction(trace, 360.0);
    const nbti::DeviceAging da(rd);
    const nbti::DeviceStress stress{0.5, nbti::StandbyMode::Stressed, 1.0,
                                    0.22};
    const double two = da.delta_vth(stress, abs2, kTenYears);
    std::printf("%-8llu %14.2f %14.2f %10.2f\n",
                static_cast<unsigned long long>(seed), to_mV(full), to_mV(two),
                100.0 * (two / full - 1.0));
  }
  std::printf("The paper's two-mode abstraction tracks full traces well — "
              "its error is the\nprice of collapsing the temperature "
              "continuum into two steady states.\n");
}

}  // namespace

int main() {
  bench::banner("Extension studies (related-work techniques end-to-end)",
                "alternating IVC, dual-Vth, sizing, control points, traces");
  const tech::Library lib;
  ext_alternating_ivc(lib);
  ext_dual_vth(lib);
  ext_sizing(lib);
  ext_inc_insertion(lib);
  ext_trace_aging();
  return 0;
}
