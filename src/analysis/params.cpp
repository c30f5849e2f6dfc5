/// \file params.cpp
/// \brief The "params" key table and the task-key text built from it.

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <type_traits>

#include "analysis/analysis.h"

namespace nbtisim::analysis {
namespace {

using P = Params;
const ParamKey kParamKeys[] = {
    {"sp_vectors", "sp", &P::sp_vectors, 64},
    {"seed", "seed", &P::seed, 0},
    {"samples", "mc", &P::samples, 2},
    {"spec_margin", "margin", &P::spec_margin, 0, true},
    {"population", "pop", &P::population, 2},
    {"max_rounds", "r", &P::max_rounds, 1},
    {"st_sigma", "sig", &P::st_sigma, 0, true, 0.5},
    {"sizing_margin", "margin", &P::sizing_margin, 0, true},
    {"sizing_step", "step", &P::sizing_step, 0, true},
    {"sizing_max_size", "cap", &P::sizing_max_size, 1},
    {"sizing_max_moves", "moves", &P::sizing_max_moves, 1},
    {"derate_years", "y", &P::derate_years, 0, true},
    {"pareto_samples", "ps", &P::pareto_samples, 2},
    {"pareto_rounds", "pr", &P::pareto_rounds, 0},
    {"pareto_flips", "pf", &P::pareto_flips, 1},
    {"crit_samples", "cs", &P::crit_samples, 2},
    {"crit_sigma", "csig", &P::crit_sigma, 0, true},
    {"clock_ghz", "clk", &P::clock_ghz, 0, true},
    {"pbti_ratio", "pbti", &P::pbti_ratio, 0},
    {"standby", "sb", &P::standby},
    {"thermal_power", "pw", &P::thermal_power, 0},
    {"thermal_replication", "rep", &P::thermal_replication, 0, true},
    {"thermal_runaway_k", "run", &P::thermal_runaway_k, 0, true},
    {"fail_dvth", "dvth", &P::fail_dvth, 0, true},
    {"fail_max_years", "ymax", &P::fail_max_years, 0, true},
    {"fail_points", "pts", &P::fail_points, 2},
    {"weibull_beta", "beta", &P::weibull_beta, 0, true},
    {"fail_curve_years", "curve", &P::fail_curve_years, 0, true},
};

/// \p key's part of a task key at \p p; empty for an empty string.
std::string key_fragment(const ParamKey& key, const Params& p) {
  return std::visit(
      [&](auto f) {
        const auto& v = p.*f;
        using T = std::decay_t<decltype(v)>;
        std::string out(key.tag);
        if constexpr (std::is_same_v<T, std::string>) {
          if (v.empty()) return std::string();
          out += v;
        } else if constexpr (std::is_same_v<T, double>) {
          out += fmt_g(v);
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          out += '[';
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) out += ':';
            out += fmt_g(v[i]);
          }
          out += ']';
        } else {  // int, std::uint64_t
          out += std::to_string(v);
        }
        return out;
      },
      key.field);
}

}  // namespace

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

std::string Condition::label() const {
  return "ras" + fmt_g(ras_active) + ":" + fmt_g(ras_standby) + ",ta" +
         fmt_g(t_active) + ",ts" + fmt_g(t_standby) + ",y" + fmt_g(years);
}

std::span<const ParamKey> param_keys() { return kParamKeys; }

const ParamKey* find_param(std::string_view name) {
  const auto it = std::ranges::find(kParamKeys, name, &ParamKey::name);
  return it == std::end(kParamKeys) ? nullptr : it;
}

std::string Analysis::fingerprint(const Params& p) const {
  std::string out;
  for (const std::string_view key : reads) {
    const ParamKey* row = find_param(key);
    if (row == nullptr) {
      throw std::logic_error("analysis \"" + std::string(name) +
                             "\" reads unknown params key \"" +
                             std::string(key) + "\"");
    }
    const std::string fragment = key_fragment(*row, p);
    if (fragment.empty()) continue;
    if (!out.empty()) out += ',';
    out += fragment;
  }
  return out;
}

}  // namespace nbtisim::analysis
