/// \file aging_signoff.cpp
/// \brief Aging-aware timing signoff: compute the guard-band a design needs
///        for a target lifetime, per circuit and per operating profile.
///
/// The scenario the paper's introduction motivates: timing specifications
/// leave a safety margin for NBTI-induced degradation, and a worst-case-
/// temperature margin is too pessimistic. This example prints, for each
/// ISCAS85-class circuit, the margin required under (a) the naive
/// worst-case-temperature assumption and (b) the temperature-aware model,
/// and the silicon the difference wastes.
///
/// Usage: aging_signoff [circuit] [years] [ras_standby_parts]
///   e.g. aging_signoff c880 7 5

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "aging/aging.h"
#include "netlist/generators.h"
#include "tech/units.h"

using namespace nbtisim;

namespace {

void signoff_row(const tech::Library& lib, const std::string& name,
                 double years, double standby_parts) {
  const netlist::Netlist nl = netlist::iscas85_like(name);
  const double horizon = years * kSecondsPerYear;

  // Temperature-aware conditions: cold standby.
  aging::AgingConditions aware;
  aware.schedule =
      nbti::ModeSchedule::from_ras(1, standby_parts, 1000.0, 400.0, 330.0);
  aware.total_time = horizon;
  aware.sp_vectors = 2048;
  const aging::AgingAnalyzer an_aware(nl, lib, aware);

  // Naive conditions: standby treated as if at the active temperature.
  aging::AgingConditions naive = aware;
  naive.schedule =
      nbti::ModeSchedule::from_ras(1, standby_parts, 1000.0, 400.0, 400.0);
  const aging::AgingAnalyzer an_naive(nl, lib, naive);

  const auto fresh = an_aware.sta().analyze_fresh(400.0);
  const double margin_aware =
      an_aware.analyze(aging::StandbyPolicy::all_stressed(), horizon).percent();
  const double margin_naive =
      an_naive.analyze(aging::StandbyPolicy::all_stressed(), horizon).percent();

  std::printf("%-8s %10.3f %12.2f %12.2f %14.2f\n", name.c_str(),
              to_ns(fresh.max_delay), margin_naive, margin_aware,
              margin_naive - margin_aware);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string only = argc > 1 ? argv[1] : "";
  const double years = argc > 2 ? std::atof(argv[2]) : 10.0;
  const double standby_parts = argc > 3 ? std::atof(argv[3]) : 9.0;
  // Written so NaN and infinities fail too.
  if (!(std::isfinite(years) && years > 0.0) ||
      !(std::isfinite(standby_parts) && standby_parts >= 0.0)) {
    std::fprintf(stderr, "usage: aging_signoff [circuit] [years>0] [parts>=0]\n");
    return 1;
  }

  std::printf("Aging-aware signoff: %.1f-year lifetime, RAS = 1:%.0f, "
              "T_active = 400 K, T_standby = 330 K\n\n", years, standby_parts);
  std::printf("%-8s %10s %12s %12s %14s\n", "circuit", "fresh", "naive",
              "aware", "recovered");
  std::printf("%-8s %10s %12s %12s %14s\n", "", "[ns]", "margin[%]",
              "margin[%]", "margin[%pt]");

  const tech::Library lib;
  if (!only.empty()) {
    signoff_row(lib, only, years, standby_parts);
  } else {
    for (const char* name : {"c432", "c499", "c880", "c1355", "c1908"}) {
      signoff_row(lib, name, years, standby_parts);
    }
  }
  std::printf("\n'recovered' is guard-band the temperature-aware model gives\n"
              "back relative to the worst-case-temperature assumption.\n");
  return 0;
}
