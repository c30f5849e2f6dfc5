/// \file dualvth_analysis.cpp
/// \brief "dualvth": slack-based dual-Vth assignment within a fixed 2 %
///        fresh-delay budget, and its leakage and aging co-benefit.

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "opt/dual_vth.h"
#include "tech/units.h"

namespace nbtisim::analysis {
namespace {

constexpr double kDelayBudgetPercent = 2.0;

class DualVthAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "dualvth"; }

  std::string fingerprint(const Params& p) const override {
    return base_fingerprint(p);
  }

  Metrics run(EvalContext& ctx, const Params&) const override {
    const opt::DualVthResult r = opt::assign_dual_vth(
        ctx.netlist(), ctx.library(), ctx.aging_conditions(),
        {.delay_budget_percent = kDelayBudgetPercent,
         .leakage_temperature = ctx.condition().t_standby});
    return {{"n_high", static_cast<double>(r.n_high)},
            {"high_pct", 100.0 * r.high_fraction()},
            {"fresh_low_ns", to_ns(r.fresh_delay_low)},
            {"fresh_dual_ns", to_ns(r.fresh_delay_dual)},
            {"leak_low_ua", 1e6 * r.leakage_low},
            {"leak_dual_ua", 1e6 * r.leakage_dual},
            {"leak_saving_pct", r.leakage_saving_percent()},
            {"aging_low_pct", r.aging_low_percent},
            {"aging_dual_pct", r.aging_dual_percent}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_dualvth_analysis() {
  return std::make_unique<DualVthAnalysis>();
}

}  // namespace nbtisim::analysis
