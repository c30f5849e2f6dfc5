/// \file failure_analysis.cpp
/// \brief "failure": the multi-mechanism failure suite as a grid analysis —
///        per-mechanism Weibull-aggregated MTTFs, the all-mechanism system
///        MTTF, and the system failure curve samples, under
///        Params::standby (default: the worst-case all-stressed policy).
///
/// MTTF metrics are reported in years and clamped to 10x the crossing
/// window: a mechanism that never fails inside the window would otherwise
/// put +infinity in the store row, which the JSONL/summarize path cannot
/// represent.  The clamp value is recognizable (an exact decade above the
/// window) and sorts correctly against real lifetimes.

#include <algorithm>
#include <cmath>

#include "aging/failure.h"
#include "analysis/analysis.h"
#include "analysis/context.h"

namespace nbtisim::analysis {
namespace {

class FailureAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "failure"; }

  std::string fingerprint(const Params& p) const override {
    std::string fp = base_fingerprint(p) + ",clk" + fmt_g(p.clock_ghz) +
                     ",pbti" + fmt_g(p.pbti_ratio) + ",dvth" +
                     fmt_g(p.fail_dvth) + ",beta" + fmt_g(p.weibull_beta) +
                     ",pts" + std::to_string(p.fail_points) + ",ymax" +
                     fmt_g(p.fail_max_years) + ",curve[";
    for (std::size_t i = 0; i < p.fail_curve_years.size(); ++i) {
      if (i > 0) fp += ":";
      fp += fmt_g(p.fail_curve_years[i]);
    }
    fp += "]";
    // Appended only when enabled so pre-table store rows keep their hashes.
    if (p.use_dvth_table) fp += ",table" + std::to_string(p.table_ppd);
    if (!p.standby.empty()) fp += ",sb" + p.standby;
    return fp;
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    aging::FailureParams fp;
    fp.multi.clock_hz = p.clock_ghz * 1e9;
    fp.multi.pbti.ratio = p.pbti_ratio;
    fp.fail_dvth = p.fail_dvth;
    fp.max_years = p.fail_max_years;
    fp.time_points = p.fail_points;
    fp.weibull_beta = p.weibull_beta;
    fp.curve_years = p.fail_curve_years;
    fp.use_dvth_table = p.use_dvth_table;
    fp.table_points_per_decade = p.table_ppd;
    const aging::FailureReport r = aging::analyze_failure(
        ctx.aging(), standby_policy(ctx, p.standby), fp);

    const double cap = 10.0 * p.fail_max_years;
    auto clamp = [cap](double years) {
      return std::isfinite(years) ? std::min(years, cap) : cap;
    };
    Metrics m;
    m.reserve(r.mechanisms.size() + 2 + r.failure_curve.size());
    for (const aging::MechanismMttf& mech : r.mechanisms) {
      m.emplace_back("mttf_" + mech.name + "_years",
                     clamp(mech.system_mttf));
    }
    m.emplace_back("system_mttf_years", clamp(r.system_mttf));
    for (const auto& [years, prob] : r.failure_curve) {
      m.emplace_back("fail_at_y" + fmt_g(years), prob);
    }
    // The sampled system failure curve as a structured payload alongside the
    // per-year scalar samples above.
    common::json::Array curve;
    curve.reserve(r.failure_curve.size());
    for (const auto& [years, prob] : r.failure_curve) {
      curve.push_back(common::json::Value(common::json::Object{
          {"years", common::json::Value(years)},
          {"p", common::json::Value(prob)}}));
    }
    m.emplace_back("curve", common::json::Value(std::move(curve)));
    return m;
  }
};

}  // namespace

std::unique_ptr<Analysis> make_failure_analysis() {
  return std::make_unique<FailureAnalysis>();
}

}  // namespace nbtisim::analysis
