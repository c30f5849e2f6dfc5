/// \file st_analysis.cpp
/// \brief "st": sleep-transistor insertion + NBTI-aware sizing (Figs. 9/11).

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "opt/sleep_transistor.h"
#include "tech/units.h"

namespace nbtisim::analysis {
namespace {

class StAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "st"; }

  std::string fingerprint(const Params& p) const override {
    return base_fingerprint(p) + ",sig" + fmt_g(p.st_sigma);
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    const aging::AgingAnalyzer& an = ctx.aging();
    opt::StParams st;
    st.sigma = p.st_sigma;
    // Fig. 11 at the horizon: the gated logic ages all-relaxed, the header
    // adds its drop, and the ungated circuit ages all-stressed.
    const double logic_pct =
        an.analyze(aging::StandbyPolicy::all_relaxed()).percent();
    const double no_st_pct =
        an.analyze(aging::StandbyPolicy::all_stressed()).percent();
    const opt::StSizing sizing = opt::size_sleep_transistor(
        an.conditions().rd, an.conditions().schedule,
        an.conditions().total_time, 1e-3, st);
    const double drop_pct =
        opt::st_drop_percent(opt::StStyle::Header, st, sizing.dvth_st);
    return {{"st_total_pct", logic_pct + drop_pct},
            {"st_logic_pct", logic_pct},
            {"st_drop_pct", drop_pct},
            {"no_st_pct", no_st_pct},
            {"wl_base", sizing.wl_base},
            {"wl_nbti_aware", sizing.wl_nbti_aware},
            {"wl_increase_pct", sizing.wl_increase_percent()},
            {"st_dvth_mv", to_mV(sizing.dvth_st)}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_st_analysis() {
  return std::make_unique<StAnalysis>();
}

}  // namespace nbtisim::analysis
