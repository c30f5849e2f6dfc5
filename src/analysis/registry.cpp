#include "analysis/analysis.h"

#include <charconv>
#include <stdexcept>

namespace nbtisim::analysis {

std::string fmt_g(double v) {
  // to_chars at precision 6 writes the C-locale bytes of "%g".
  char buf[32];
  char* const end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6)
          .ptr;
  double back = 0.0;
  if (std::from_chars(buf, end, back).ec == std::errc() && back == v) {
    return std::string(buf, end);
  }
  return common::json::format_number(v);
}

std::string base_fingerprint(const Params& p) {
  return "sp" + std::to_string(p.sp_vectors) + ",seed" + std::to_string(p.seed);
}

std::string Condition::label() const {
  return "ras" + fmt_g(ras_active) + ":" + fmt_g(ras_standby) + ",ta" +
         fmt_g(t_active) + ",ts" + fmt_g(t_standby) + ",y" + fmt_g(years);
}

void AnalysisRegistry::add(std::unique_ptr<Analysis> a) {
  const std::string name(a->name());
  const auto [it, inserted] = by_name_.try_emplace(name, std::move(a));
  if (!inserted) {
    throw std::invalid_argument("AnalysisRegistry: \"" + name +
                                "\" is already registered");
  }
}

const Analysis* AnalysisRegistry::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second.get();
}

const Analysis& AnalysisRegistry::at(std::string_view name) const {
  if (const Analysis* a = find(name)) return *a;
  std::string known;
  for (const auto& [n, _] : by_name_) {
    known += known.empty() ? n : "|" + n;
  }
  throw std::invalid_argument("unknown analysis \"" + std::string(name) +
                              "\" (expected " + known + ")");
}

std::vector<std::string> AnalysisRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(by_name_.size());
  for (const auto& [n, _] : by_name_) out.push_back(n);
  return out;  // std::map: already sorted
}

void register_builtin_analyses(AnalysisRegistry& r) {
  r.add(make_aging_analysis());
  r.add(make_ivc_analysis());
  r.add(make_st_analysis());
  r.add(make_lifetime_analysis());
  r.add(make_sizing_analysis());
  r.add(make_derate_analysis());
  r.add(make_pareto_analysis());
  r.add(make_criticality_analysis());
  r.add(make_multi_analysis());
  r.add(make_thermal_analysis());
  r.add(make_failure_analysis());
  r.add(make_mc_analysis());
  r.add(make_dualvth_analysis());
  r.add(make_inc_analysis());
  r.add(make_altivc_analysis());
}

AnalysisRegistry& AnalysisRegistry::global() {
  static AnalysisRegistry* instance = [] {
    auto* r = new AnalysisRegistry();
    register_builtin_analyses(*r);
    return r;
  }();
  return *instance;
}

}  // namespace nbtisim::analysis
