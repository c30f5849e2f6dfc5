/// \file lifetime_planner.cpp
/// \brief Lifetime planning for a product: how much timing margin does a
///        target shipping lifetime require, and which knobs buy it back?
///
/// Walks a product decision end-to-end:
///   1. multi-mechanism degradation (NBTI + PBTI + HCI) of the circuit,
///   2. the time-to-failure distribution at several spec margins,
///   3. the margin needed for a target survival rate at the target lifetime,
///   4. what standby-mode relief (sleep transistor / relaxed nodes) buys.
///
/// Usage: lifetime_planner [circuit] [target_years] [survival_%]
///   e.g. lifetime_planner c880 7 99

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "aging/multi.h"
#include "netlist/generators.h"
#include "tech/units.h"
#include "variation/lifetime.h"

using namespace nbtisim;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "c432";
  const double target_years = argc > 2 ? std::atof(argv[2]) : 10.0;
  const double survival_pct = argc > 3 ? std::atof(argv[3]) : 99.0;
  // Written so NaN and infinities fail too: a NaN survival rate used to
  // print "nan" in every life@%ile row.
  if (!std::isfinite(target_years) || target_years <= 0.0 ||
      !(survival_pct > 0.0 && survival_pct < 100.0)) {
    std::fprintf(stderr,
                 "usage: lifetime_planner [circuit] [years>0] [0<surv%%<100]\n");
    return 1;
  }

  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like(name);
  aging::AgingConditions cond;
  cond.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
  cond.sp_vectors = 2048;
  const aging::AgingAnalyzer analyzer(nl, lib, cond);

  std::printf("Lifetime planner: %s, target %.1f years at %.1f%% survival, "
              "hot standby (400 K)\n\n", name.c_str(), target_years,
              survival_pct);

  // 1. What ages the design.
  const aging::MultiAgingReport multi = aging::analyze_multi_mechanism(
      analyzer, aging::StandbyPolicy::all_stressed());
  std::printf("10-year degradation: NBTI-only %.2f%%, with PBTI+HCI %.2f%%\n",
              multi.nbti_only_percent(), multi.percent());

  // 2./3. Find the needed margin by scanning spec margins.
  const double target_s = target_years * kSecondsPerYear;
  const double quant = 1.0 - survival_pct / 100.0;
  std::printf("\n%-12s %16s %18s\n", "margin [%]", "median life [y]",
              "life@%ile [y]");
  double needed_margin = -1.0;
  for (double margin : {3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0}) {
    const variation::LifetimeResult r = variation::lifetime_distribution(
        analyzer, aging::StandbyPolicy::all_stressed(),
        {.spec_margin_percent = margin, .samples = 120});
    const double life_at_quantile = r.quantile(quant) / kSecondsPerYear;
    std::printf("%-12.1f %16.2f %18.2f\n", margin,
                r.quantile(0.5) / kSecondsPerYear, life_at_quantile);
    if (needed_margin < 0.0 && life_at_quantile >= target_years) {
      needed_margin = margin;
    }
  }
  if (needed_margin > 0.0) {
    std::printf("\n=> a %.1f%% timing margin meets %.0f%% survival at %.1f "
                "years.\n", needed_margin, survival_pct, target_years);
  } else {
    std::printf("\n=> no scanned margin suffices; consider standby relief.\n");
  }

  // 4. What standby-mode relief buys at a fixed 6% margin.
  const variation::LifetimeParams p{.spec_margin_percent = 6.0,
                                    .samples = 120};
  const variation::LifetimeResult worst = variation::lifetime_distribution(
      analyzer, aging::StandbyPolicy::all_stressed(), p);
  const variation::LifetimeResult relaxed = variation::lifetime_distribution(
      analyzer, aging::StandbyPolicy::all_relaxed(), p);
  std::printf("\nAt a 6%% margin: median lifetime %.2f y (uncontrolled "
              "standby) vs %.2f y\n(sleep-transistor/INC standby) — idle-"
              "mode policy is a lifetime knob.\n",
              worst.quantile(0.5) / kSecondsPerYear,
              relaxed.quantile(0.5) / kSecondsPerYear);
  std::printf("Failure fraction at %.1f y: %.1f%% -> %.1f%%\n", target_years,
              100.0 * worst.failure_fraction_at(target_s),
              100.0 * relaxed.failure_fraction_at(target_s));
  return 0;
}
