/// \file inc_analysis.cpp
/// \brief "inc": greedy control-point insertion (internal node control,
///        up to 30 points) — degradation before/after and the time-0
///        penalty of the modified drivers.

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "opt/inc_insertion.h"

namespace nbtisim::analysis {
namespace {

constexpr int kMaxControlPoints = 30;

class IncAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "inc"; }

  std::string fingerprint(const Params& p) const override {
    return base_fingerprint(p);
  }

  Metrics run(EvalContext& ctx, const Params&) const override {
    const opt::IncInsertionResult r = opt::insert_control_points(
        ctx.aging(), {.max_control_points = kMaxControlPoints});
    return {{"control_points", static_cast<double>(r.controlled.size())},
            {"aging_before_pct", r.aging_before},
            {"aging_after_pct", r.aging_after},
            {"aging_saving_pct", r.aging_saving_percent()},
            {"time0_penalty_pct", r.time0_penalty_percent()}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_inc_analysis() {
  return std::make_unique<IncAnalysis>();
}

}  // namespace nbtisim::analysis
