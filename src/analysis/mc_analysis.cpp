/// \file mc_analysis.cpp
/// \brief "mc": the variation Monte-Carlo of Fig. 12 — fresh and aged
///        (worst-case standby, at the horizon) delay distributions with
///        their ±3σ bounds, at a fixed per-gate σ_Vth of 12 mV.

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "tech/units.h"
#include "variation/variation.h"

namespace nbtisim::analysis {
namespace {

constexpr double kSigmaVth = 0.012;  ///< per-gate Vth variation [V]

class McAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "mc"; }

  std::string fingerprint(const Params& p) const override {
    return base_fingerprint(p) + ",mc" + std::to_string(p.samples);
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    const variation::MonteCarloAging mc(
        ctx.aging(),
        {.sigma_vth = kSigmaVth, .samples = p.samples, .seed = p.seed});
    const variation::DelayDistribution fresh = mc.fresh_distribution();
    const variation::DelayDistribution aged = mc.aged_distribution(
        aging::StandbyPolicy::all_stressed(), ctx.horizon());
    return {{"fresh_mean_ns", to_ns(fresh.mean())},
            {"fresh_sigma_ps", to_ps(fresh.stddev())},
            {"fresh_lo3_ns", to_ns(fresh.lower3())},
            {"fresh_hi3_ns", to_ns(fresh.upper3())},
            {"aged_mean_ns", to_ns(aged.mean())},
            {"aged_sigma_ps", to_ps(aged.stddev())},
            {"aged_lo3_ns", to_ns(aged.lower3())},
            {"aged_hi3_ns", to_ns(aged.upper3())}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_mc_analysis() {
  return std::make_unique<McAnalysis>();
}

}  // namespace nbtisim::analysis
