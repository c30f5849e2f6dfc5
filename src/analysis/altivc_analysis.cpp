/// \file altivc_analysis.cpp
/// \brief "altivc": alternating IVC (Abella et al. [23]) — the best static
///        MLV against rotating through an MLV set of 8, by circuit
///        degradation and by the worst device's ΔVth.

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "opt/ivc.h"
#include "tech/units.h"

namespace nbtisim::analysis {
namespace {

constexpr int kMlvSetSize = 8;

class AltIvcAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "altivc"; }

  std::string fingerprint(const Params& p) const override {
    return base_fingerprint(p) + ",pop" + std::to_string(p.population) + ",r" +
           std::to_string(p.max_rounds);
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    opt::MlvSearchParams mlv;
    mlv.population = p.population;
    mlv.max_rounds = p.max_rounds;
    mlv.max_set_size = kMlvSetSize;
    mlv.seed = p.seed;
    const opt::AlternatingIvcResult r =
        opt::evaluate_alternating_ivc(ctx.aging(), ctx.standby_leakage(), mlv);
    return {{"n_vectors", static_cast<double>(r.n_vectors)},
            {"static_pct", r.static_percent},
            {"rotating_pct", r.rotating_percent},
            {"static_max_dvth_mv", to_mV(r.static_max_dvth)},
            {"rotating_max_dvth_mv", to_mV(r.rotating_max_dvth)},
            {"max_dvth_reduction_pct", r.max_dvth_reduction_percent()}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_altivc_analysis() {
  return std::make_unique<AltIvcAnalysis>();
}

}  // namespace nbtisim::analysis
