/// \file multi_analysis.cpp
/// \brief "multi": the NBTI + PBTI + HCI mechanism comparison as a grid
///        analysis, under Params::standby (default: the worst-case
///        all-stressed policy).

#include <algorithm>

#include "aging/multi.h"
#include "analysis/analysis.h"
#include "analysis/context.h"
#include "tech/units.h"

namespace nbtisim::analysis {
namespace {

class MultiAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "multi"; }

  std::string fingerprint(const Params& p) const override {
    std::string fp = base_fingerprint(p) + ",clk" + fmt_g(p.clock_ghz) +
                     ",pbti" + fmt_g(p.pbti_ratio);
    if (!p.standby.empty()) fp += ",sb" + p.standby;
    return fp;
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    aging::MultiAgingParams mp;
    mp.clock_hz = p.clock_ghz * 1e9;
    mp.pbti.ratio = p.pbti_ratio;
    const aging::MultiAgingReport r = aging::analyze_multi_mechanism(
        ctx.aging(), standby_policy(ctx, p.standby), mp);
    double max_p = 0.0, max_n = 0.0;
    for (double d : r.pmos_dvth) max_p = std::max(max_p, d);
    for (double d : r.nmos_dvth) max_n = std::max(max_n, d);
    return {{"fresh_ns", to_ns(r.fresh_delay)},
            {"nbti_pct", r.nbti_only_percent()},
            {"multi_pct", r.percent()},
            {"pmos_mv", to_mV(max_p)},
            {"nmos_mv", to_mV(max_n)}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_multi_analysis() {
  return std::make_unique<MultiAnalysis>();
}

}  // namespace nbtisim::analysis
