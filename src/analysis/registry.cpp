/// \file registry.cpp
/// \brief The built-in analyses: one run function each, and the one table
///        that gives each its name and the Params keys it reads.

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "aging/failure.h"
#include "aging/multi.h"
#include "analysis/analysis.h"
#include "analysis/context.h"
#include "opt/dual_vth.h"
#include "opt/inc_insertion.h"
#include "opt/ivc.h"
#include "opt/pareto.h"
#include "opt/sizing.h"
#include "opt/sleep_transistor.h"
#include "report/derate.h"
#include "tech/units.h"
#include "thermal/electrothermal.h"
#include "variation/criticality.h"
#include "variation/lifetime.h"
#include "variation/variation.h"

namespace nbtisim::analysis {
namespace {

using common::json::Value;

/// "aging": degradation under the three standby policies + a half-horizon
/// series point (Fig. 5 / Table 1 style).
Metrics run_aging(EvalContext& ctx, const Params&) {
  const aging::AgingAnalyzer& an = ctx.aging();
  const auto worst = an.analyze(aging::StandbyPolicy::all_stressed());
  const auto best = an.analyze(aging::StandbyPolicy::all_relaxed());
  const std::vector<bool> zeros(an.sta().netlist().num_inputs(), false);
  const auto vec = an.analyze(aging::StandbyPolicy::from_vector(zeros));
  // One mid-horizon series point turns the row into a 2-point degradation
  // series (full curves stay the job of bench_fig5 etc.).
  const auto half = an.analyze(aging::StandbyPolicy::all_stressed(),
                               an.conditions().total_time / 2.0);
  return {{"fresh_ns", to_ns(worst.fresh_delay)},
          {"aged_worst_ns", to_ns(worst.aged_delay)},
          {"worst_pct", worst.percent()},
          {"worst_half_horizon_pct", half.percent()},
          {"vector0_pct", vec.percent()},
          {"best_pct", best.percent()}};
}

/// The MLV search knobs ivc and altivc share.
opt::MlvSearchParams mlv_search(const Params& p) {
  opt::MlvSearchParams mlv;
  mlv.population = p.population;
  mlv.max_rounds = p.max_rounds;
  mlv.seed = p.seed;
  return mlv;
}

/// "altivc": alternating IVC (Abella et al. [23]) — the best static MLV
/// against rotating through an MLV set of 8, by circuit degradation and by
/// the worst device's ΔVth.
Metrics run_altivc(EvalContext& ctx, const Params& p) {
  opt::MlvSearchParams mlv = mlv_search(p);
  mlv.max_set_size = 8;
  const opt::AlternatingIvcResult r =
      opt::evaluate_alternating_ivc(ctx.aging(), ctx.standby_leakage(), mlv);
  return {{"n_vectors", static_cast<double>(r.n_vectors)},
          {"static_pct", r.static_percent},
          {"rotating_pct", r.rotating_percent},
          {"static_max_dvth_mv", to_mV(r.static_max_dvth)},
          {"rotating_max_dvth_mv", to_mV(r.rotating_max_dvth)},
          {"max_dvth_reduction_pct", r.max_dvth_reduction_percent()}};
}

/// "criticality": per-gate critical-path probability under process
/// variation of the AGED circuit (worst-case standby policy at the
/// condition's horizon) — how concentrated the timing risk is that the
/// sizing / dual-Vth passes must protect.
Metrics run_criticality(EvalContext& ctx, const Params& p) {
  variation::CriticalityParams cp;
  cp.sigma_vth = p.crit_sigma;
  cp.samples = p.crit_samples;
  cp.seed = p.seed;
  cp.aged = true;  // criticality of the circuit the condition produces
  cp.total_time = ctx.horizon();
  const variation::CriticalityResult r =
      variation::gate_criticality(ctx.aging(), cp);
  const double max_prob =
      r.probability.empty()
          ? 0.0
          : *std::max_element(r.probability.begin(), r.probability.end());
  // Per-gate criticality vector (topological gate order) as a structured
  // payload alongside the scalar summary.
  common::json::Array gate_prob;
  gate_prob.reserve(r.probability.size());
  for (double prob : r.probability) gate_prob.emplace_back(prob);
  return {{"distinct_paths", static_cast<double>(r.distinct_paths)},
          {"critical_gates", static_cast<double>(r.critical_set().size())},
          {"max_prob", max_prob},
          {"gate_prob", Value(std::move(gate_prob))}};
}

/// "derate": the signoff derate table — the aged/fresh circuit delay factor
/// per lifetime under the worst / all-zero / best standby policies,
/// flattened to one metric per (policy, year) cell.
Metrics run_derate(EvalContext& ctx, const Params& p) {
  // One horizon-batched pass per policy over the cached stress descriptors.
  const report::DerateTable t =
      report::aging_derate_table(ctx.aging(), p.derate_years);
  // Short policy tags keep the summarize columns readable:
  // worst_case -> "worst", inputs_all_zero -> "vec0", best_case -> "best".
  static constexpr const char* kTags[] = {"worst", "vec0", "best"};
  Metrics m;
  m.reserve(t.policy_names.size() * t.years.size());
  for (std::size_t pi = 0; pi < t.policy_names.size(); ++pi) {
    const std::string tag = pi < 3 ? kTags[pi] : t.policy_names[pi];
    for (std::size_t yi = 0; yi < t.years.size(); ++yi) {
      m.emplace_back(tag + "_y" + fmt_g(t.years[yi]), t.factors[pi][yi]);
    }
  }
  return m;
}

/// "dualvth": slack-based dual-Vth assignment within a fixed 2 %
/// fresh-delay budget, and its leakage and aging co-benefit.
Metrics run_dualvth(EvalContext& ctx, const Params&) {
  const opt::DualVthResult r = opt::assign_dual_vth(
      ctx.aging(), ctx.standby_leakage(), {.delay_budget_percent = 2.0});
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

/// "failure": the multi-mechanism failure suite — per-mechanism
/// Weibull-aggregated MTTFs, the all-mechanism system MTTF, and the system
/// failure curve samples, under Params::standby (default: the worst-case
/// all-stressed policy).
///
/// MTTF metrics are reported in years and clamped to 10x the crossing
/// window: a mechanism that never fails inside the window would otherwise
/// put +infinity in the store row, which the JSONL/summarize path cannot
/// represent. The clamp value is recognizable (an exact decade above the
/// window) and sorts correctly against real lifetimes.
Metrics run_failure(EvalContext& ctx, const Params& p) {
  aging::FailureParams fp;
  fp.multi.clock_hz = p.clock_ghz * 1e9;
  fp.multi.pbti.ratio = p.pbti_ratio;
  fp.fail_dvth = p.fail_dvth;
  fp.max_years = p.fail_max_years;
  fp.time_points = p.fail_points;
  fp.weibull_beta = p.weibull_beta;
  fp.curve_years = p.fail_curve_years;
  const aging::FailureReport r = aging::analyze_failure(
      ctx.aging(), standby_policy(ctx, p.standby), fp);

  const double cap = 10.0 * p.fail_max_years;
  auto clamp = [cap](double years) {
    return std::isfinite(years) ? std::min(years, cap) : cap;
  };
  Metrics m;
  m.reserve(r.mechanisms.size() + 2 + r.failure_curve.size());
  for (const aging::MechanismMttf& mech : r.mechanisms) {
    m.emplace_back("mttf_" + mech.name + "_years", clamp(mech.system_mttf));
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
    curve.push_back(Value(common::json::Object{{"years", Value(years)},
                                               {"p", Value(prob)}}));
  }
  m.emplace_back("curve", Value(std::move(curve)));
  return m;
}

/// "inc": greedy control-point insertion (internal node control, up to 30
/// points) — degradation before/after and the time-0 penalty of the
/// modified drivers.
Metrics run_inc(EvalContext& ctx, const Params&) {
  const opt::IncInsertionResult r =
      opt::insert_control_points(ctx.aging(), {.max_control_points = 30});
  return {{"control_points", static_cast<double>(r.controlled.size())},
          {"aging_before_pct", r.aging_before},
          {"aging_after_pct", r.aging_after},
          {"aging_saving_pct", r.aging_saving_percent()},
          {"time0_penalty_pct", r.time0_penalty_percent()}};
}

/// "ivc": MLV search + IVC/NBTI co-optimization (Table 3).
Metrics run_ivc(EvalContext& ctx, const Params& p) {
  const opt::IvcResult r = opt::evaluate_ivc(
      ctx.aging(), ctx.standby_leakage(), mlv_search(p), 4);
  return {{"worst_pct", r.worst_case_percent},
          {"best_mlv_pct", r.best().degradation_percent},
          {"best_mlv_leak_ua", 1e6 * r.best().leakage},
          {"mlv_spread_pct", r.mlv_spread_percent()},
          {"random_ref_pct", r.random_vector_percent},
          {"inc_bound_pct", r.best_case_percent},
          {"n_mlv", static_cast<double>(r.candidates.size())}};
}

/// "lifetime": Monte-Carlo time-to-failure distribution (Fig. 12 inverse).
Metrics run_lifetime(EvalContext& ctx, const Params& p) {
  variation::LifetimeParams lt;
  lt.spec_margin_percent = p.spec_margin;
  lt.samples = p.samples;
  lt.seed = p.seed;
  const variation::LifetimeResult r = variation::lifetime_distribution(
      ctx.aging(), aging::StandbyPolicy::all_stressed(), lt);
  return {{"median_years", r.quantile(0.5) / kSecondsPerYear},
          {"p01_years", r.quantile(0.01) / kSecondsPerYear},
          {"fail_at_horizon_pct",
           100.0 * r.failure_fraction_at(ctx.horizon())},
          {"survivor_pct", 100.0 * r.survivor_fraction()}};
}

/// "mc": the variation Monte-Carlo of Fig. 12 — fresh and aged (worst-case
/// standby, at the horizon) delay distributions with their ±3σ bounds, at
/// a fixed per-gate σ_Vth of 12 mV.
Metrics run_mc(EvalContext& ctx, const Params& p) {
  const variation::MonteCarloAging mc(
      ctx.aging(), {.sigma_vth = 0.012, .samples = p.samples, .seed = p.seed});
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

/// "multi": the NBTI + PBTI + HCI mechanism comparison under
/// Params::standby (default: the worst-case all-stressed policy).
Metrics run_multi(EvalContext& ctx, const Params& p) {
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

/// "pareto": the standby-vector leakage/degradation Pareto front — front
/// extremes, the balanced pick, and the trade-off depth per (netlist,
/// condition), plus the full front as a structured "front" payload for the
/// query layer.
Metrics run_pareto(EvalContext& ctx, const Params& p) {
  opt::ParetoParams pp;
  pp.random_samples = p.pareto_samples;
  pp.improve_rounds = p.pareto_rounds;
  pp.flips_per_member = p.pareto_flips;
  pp.seed = p.seed;
  const opt::ParetoResult r =
      opt::pareto_standby_vectors(ctx.aging(), ctx.standby_leakage(), pp);
  const opt::ParetoPoint& balanced = r.pick(0.5);
  // Full front (ascending leakage) as a structured payload; the scalar
  // summaries above it keep the legacy flat contract.
  common::json::Array front;
  front.reserve(r.front.size());
  for (const opt::ParetoPoint& pt : r.front) {
    front.push_back(
        Value(common::json::Object{{"leak_ua", Value(1e6 * pt.leakage)},
                                   {"deg_pct", Value(pt.degradation_percent)}}));
  }
  return {{"front_size", static_cast<double>(r.front.size())},
          {"evaluated", static_cast<double>(r.evaluated)},
          {"min_leak_ua", 1e6 * r.min_leakage().leakage},
          {"min_leak_deg_pct", r.min_leakage().degradation_percent},
          {"min_deg_pct", r.min_degradation().degradation_percent},
          {"min_deg_leak_ua", 1e6 * r.min_degradation().leakage},
          {"balanced_leak_ua", 1e6 * balanced.leakage},
          {"balanced_deg_pct", balanced.degradation_percent},
          {"deg_range_pct", r.degradation_range()},
          {"front", Value(std::move(front))}};
}

/// "sizing": NBTI-aware gate sizing to an aged-delay spec (Paul-style
/// baseline) — area overhead vs the guard-band alternative per (netlist,
/// condition).
Metrics run_sizing(EvalContext& ctx, const Params& p) {
  opt::SizingParams sp;
  sp.spec_margin_percent = p.sizing_margin;
  sp.size_step = p.sizing_step;
  sp.max_size = p.sizing_max_size;
  sp.max_moves = p.sizing_max_moves;
  const opt::SizingResult r = opt::size_for_lifetime(
      ctx.aging(), aging::StandbyPolicy::all_stressed(), sp);
  return {{"spec_ns", to_ns(r.spec)},
          {"aged_before_ns", to_ns(r.aged_before)},
          {"aged_after_ns", to_ns(r.aged_after)},
          {"area_overhead_pct", r.area_overhead_percent()},
          {"guard_band_pct", r.guard_band_percent()},
          {"moves", static_cast<double>(r.moves)},
          {"rounds", static_cast<double>(r.rounds)},
          {"met", r.met ? 1.0 : 0.0}};
}

/// "st": sleep-transistor insertion + NBTI-aware sizing (Figs. 9/11).
Metrics run_st(EvalContext& ctx, const Params& p) {
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

/// "thermal": the leakage/temperature fixpoint of a die of
/// Params::thermal_replication copies of the cell's circuit, with the
/// standby inputs held at the Params::standby vector (default all-0; the
/// policies "stressed" and "relaxed" name no vector and are rejected).
/// The leakage state is a deterministic logic evaluation, so thermal reads
/// neither shared Monte-Carlo knob: sp_vectors/seed changes leave its
/// store rows valid.
Metrics run_thermal(EvalContext& ctx, const Params& p) {
  const std::vector<bool> standby = standby_vector(ctx, p.standby);
  thermal::ElectrothermalParams ep;
  ep.dynamic_power_w = p.thermal_power;
  ep.replication = p.thermal_replication;
  ep.runaway_temp_k = p.thermal_runaway_k;
  const thermal::RcThermalModel model;
  const thermal::OperatingPoint op = thermal::solve_operating_point(
      ctx.netlist(), ctx.library(), model, standby, ep);
  // A runaway iterate can be +inf; clamp so the store row stays numeric.
  const double temp =
      std::isfinite(op.temperature_k) ? op.temperature_k : p.thermal_runaway_k;
  return {{"temp_k", temp},
          {"leakage_w", op.leakage_w},
          {"iterations", static_cast<double>(op.iterations)},
          {"converged", op.converged ? 1.0 : 0.0}};
}

// What each analysis reads, in task-key order.
constexpr std::string_view kShared[] = {"sp_vectors", "seed"};
constexpr std::string_view kMlv[] = {"sp_vectors", "seed", "population",
                                     "max_rounds"};
constexpr std::string_view kCriticality[] = {"sp_vectors", "seed",
                                             "crit_samples", "crit_sigma"};
constexpr std::string_view kDerate[] = {"sp_vectors", "seed", "derate_years"};
constexpr std::string_view kFailure[] = {
    "sp_vectors", "seed",        "clock_ghz",   "pbti_ratio",
    "fail_dvth",  "weibull_beta", "fail_points", "fail_max_years",
    "fail_curve_years", "standby"};
constexpr std::string_view kLifetime[] = {"sp_vectors", "seed", "samples",
                                          "spec_margin"};
constexpr std::string_view kMc[] = {"sp_vectors", "seed", "samples"};
constexpr std::string_view kMulti[] = {"sp_vectors", "seed", "clock_ghz",
                                       "pbti_ratio", "standby"};
constexpr std::string_view kPareto[] = {"sp_vectors", "seed", "pareto_samples",
                                        "pareto_rounds", "pareto_flips"};
constexpr std::string_view kSizing[] = {"sp_vectors",      "seed",
                                        "sizing_margin",   "sizing_step",
                                        "sizing_max_size", "sizing_max_moves"};
constexpr std::string_view kSt[] = {"sp_vectors", "seed", "st_sigma"};
constexpr std::string_view kThermal[] = {"thermal_power", "thermal_replication",
                                         "thermal_runaway_k", "standby"};

constexpr Analysis kAnalyses[] = {
    {"aging", kShared, run_aging},
    {"altivc", kMlv, run_altivc},
    {"criticality", kCriticality, run_criticality},
    {"derate", kDerate, run_derate},
    {"dualvth", kShared, run_dualvth},
    {"failure", kFailure, run_failure},
    {"inc", kShared, run_inc},
    {"ivc", kMlv, run_ivc},
    {"lifetime", kLifetime, run_lifetime},
    {"mc", kMc, run_mc},
    {"multi", kMulti, run_multi},
    {"pareto", kPareto, run_pareto},
    {"sizing", kSizing, run_sizing},
    {"st", kSt, run_st},
    {"thermal", kThermal, run_thermal},
};
// Strictly ascending: find() bisects, and no name repeats.
static_assert(std::ranges::adjacent_find(kAnalyses, std::greater_equal{},
                                         &Analysis::name) ==
              std::ranges::end(kAnalyses));

}  // namespace

const AnalysisRegistry& AnalysisRegistry::global() {
  static const AnalysisRegistry instance(kAnalyses);
  return instance;
}

const Analysis* AnalysisRegistry::find(std::string_view name) const {
  const auto it = std::ranges::lower_bound(table_, name, {}, &Analysis::name);
  return it != table_.end() && it->name == name ? &*it : nullptr;
}

const Analysis& AnalysisRegistry::at(std::string_view name) const {
  if (const Analysis* a = find(name)) return *a;
  std::string known;
  for (const Analysis& a : table_) {
    if (!known.empty()) known += '|';
    known += a.name;
  }
  throw std::invalid_argument("unknown analysis \"" + std::string(name) +
                              "\" (expected " + known + ")");
}

std::vector<std::string> AnalysisRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(table_.size());
  for (const Analysis& a : table_) out.emplace_back(a.name);
  return out;
}

}  // namespace nbtisim::analysis
