#include "campaign/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace nbtisim::campaign {
namespace {

using common::json::Value;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// \p v as a finite number in [lo, hi] (in (lo, hi] when \p open).
/// \throws std::invalid_argument naming \p key of \p section otherwise
double number_in(const Value& v, const char* section, const std::string& key,
                 double lo, bool open = false, double hi = kInf) {
  const double d = v.is_number() ? v.as_number() : std::nan("");
  if (!std::isfinite(d) || d < lo || (open && d == lo) || d > hi) {
    using common::json::format_number;
    const std::string range =
        hi == kInf ? (open ? "> " : ">= ") + format_number(lo)
                   : "in " + std::string(open ? "(" : "[") +
                         format_number(lo) + ", " + format_number(hi) + "]";
    throw std::invalid_argument(std::string("campaign: ") + section + " \"" +
                                key + "\" must be a finite number " + range);
  }
  return d;
}

/// \p v as an integer in [lo, hi].
double integer_in(const Value& v, const char* section, const std::string& key,
                  double lo, double hi) {
  const double d = number_in(v, section, key, lo, false, hi);
  if (d != std::floor(d)) {
    throw std::invalid_argument(std::string("campaign: ") + section + " \"" +
                                key + "\" must be an integer");
  }
  return d;
}

/// One "params" key: the Params field it sets and the values it accepts —
/// numbers (and the elements of number lists) in [lo, hi], or in (lo, hi]
/// when \p open.
struct ParamKey {
  std::string_view name;
  std::variant<int CampaignParams::*, double CampaignParams::*,
               std::uint64_t CampaignParams::*, bool CampaignParams::*,
               std::string CampaignParams::*,
               std::vector<double> CampaignParams::*>
      field;
  double lo = -kInf;
  bool open = false;
  double hi = kInf;
};

using P = CampaignParams;
const ParamKey kParamKeys[] = {
    {"sp_vectors", &P::sp_vectors, 64},
    {"seed", &P::seed, 0},
    {"samples", &P::samples, 2},
    {"spec_margin", &P::spec_margin, 0, true},
    {"population", &P::population, 2},
    {"max_rounds", &P::max_rounds, 1},
    {"st_sigma", &P::st_sigma, 0, true, 0.5},
    {"sizing_margin", &P::sizing_margin, 0, true},
    {"sizing_step", &P::sizing_step, 0, true},
    {"sizing_max_size", &P::sizing_max_size, 1},
    {"sizing_max_moves", &P::sizing_max_moves, 1},
    {"sizing_slack_window", &P::sizing_slack_window, 0},
    {"sizing_moves_per_round", &P::sizing_moves_per_round, 1},
    {"derate_years", &P::derate_years, 0, true},
    {"pareto_samples", &P::pareto_samples, 2},
    {"pareto_rounds", &P::pareto_rounds, 0},
    {"pareto_flips", &P::pareto_flips, 1},
    {"crit_samples", &P::crit_samples, 2},
    {"crit_sigma", &P::crit_sigma, 0, true},
    {"clock_ghz", &P::clock_ghz, 0, true},
    {"pbti_ratio", &P::pbti_ratio, 0},
    {"standby", &P::standby},
    {"thermal_power", &P::thermal_power, 0},
    {"thermal_replication", &P::thermal_replication, 0, true},
    {"thermal_runaway_k", &P::thermal_runaway_k, 0, true},
    {"fail_dvth", &P::fail_dvth, 0, true},
    {"fail_max_years", &P::fail_max_years, 0, true},
    {"fail_points", &P::fail_points, 2},
    {"weibull_beta", &P::weibull_beta, 0, true},
    {"fail_curve_years", &P::fail_curve_years, 0, true},
    {"use_dvth_table", &P::use_dvth_table},
    {"table_ppd", &P::table_ppd, 1},
};

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

void set_param(CampaignParams& p, const std::string& name, const Value& v) {
  const auto key = std::find_if(std::begin(kParamKeys), std::end(kParamKeys),
                                [&](const ParamKey& k) { return k.name == name; });
  if (key == std::end(kParamKeys)) {
    throw std::invalid_argument("campaign: unknown \"params\" key \"" + name +
                                "\"");
  }
  constexpr const char* kSection = "\"params\" key";
  auto fail = [&](const char* expected) {
    throw std::invalid_argument(std::string("campaign: ") + kSection + " \"" +
                                name + "\" " + expected);
  };
  std::visit(
      Overloaded{
          [&](double P::*f) {
            p.*f = number_in(v, kSection, name, key->lo, key->open, key->hi);
          },
          [&](int P::*f) {
            p.*f = static_cast<int>(
                integer_in(v, kSection, name, key->lo, 2147483647.0));
          },
          [&](std::uint64_t P::*f) {  // up to 2^53, exact in a double
            p.*f = static_cast<std::uint64_t>(
                integer_in(v, kSection, name, key->lo, 9007199254740992.0));
          },
          [&](std::vector<double> P::*f) {
            if (!v.is_array() || v.as_array().empty()) {
              fail("must be a non-empty list of numbers");
            }
            (p.*f).clear();
            for (const Value& x : v.as_array()) {
              (p.*f).push_back(
                  number_in(x, kSection, name, key->lo, key->open, key->hi));
            }
          },
          [&](bool P::*f) {
            if (!v.is_bool()) fail("must be true or false");
            p.*f = v.as_bool();
          },
          [&](std::string P::*f) {  // "standby", the one string knob
            const std::string s = v.is_string() ? v.as_string() : "?";
            if (!s.empty() && s != "stressed" && s != "relaxed" &&
                s != "zeros" && s != "ones" && s != "mlv") {
              fail("must be \"\" or stressed|relaxed|zeros|ones|mlv");
            }
            p.*f = s;
          }},
      key->field);
}

void params_from_json(const Value& doc, CampaignParams& p) {
  for (const auto& [name, value] : doc.as_object()) set_param(p, name, value);
}

Condition condition_from_json(const Value& doc) {
  Condition c;
  for (const auto& [name, value] : doc.as_object()) {
    if (name == "ras") {
      const std::string v = value.is_string() ? value.as_string() : "";
      const std::size_t colon = v.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument(
            "campaign: condition \"ras\" expects \"A:S\"");
      }
      c.ras_active = std::strtod(v.substr(0, colon).c_str(), nullptr);
      c.ras_standby = std::strtod(v.substr(colon + 1).c_str(), nullptr);
      if (!std::isfinite(c.ras_active) || !std::isfinite(c.ras_standby) ||
          c.ras_active <= 0.0 || c.ras_standby < 0.0) {
        throw std::invalid_argument("campaign: bad \"ras\" value " + v);
      }
    } else if (name == "t_active") {
      c.t_active = number_in(value, "condition", name, 0, true);
    } else if (name == "t_standby") {
      c.t_standby = number_in(value, "condition", name, 0, true);
    } else if (name == "years") {
      c.years = number_in(value, "condition", name, 0, true);
    } else {
      throw std::invalid_argument("campaign: unknown condition key \"" + name +
                                  "\"");
    }
  }
  return c;
}

/// Every member of a spec document; spec_from_json adds the grid checks.
CampaignSpec parse_spec(const Value& doc) {
  for (const auto& [name, _] : doc.as_object()) {
    if (name != "name" && name != "netlists" && name != "conditions" &&
        name != "analyses" && name != "params" && name != "n_threads" &&
        name != "shards" && name != "cut_dffs") {
      throw std::invalid_argument("campaign: unknown spec key \"" + name +
                                  "\"");
    }
  }
  CampaignSpec spec;
  spec.name = doc.string_or("name", "campaign");

  for (const Value& n : doc.at("netlists").as_array()) {
    spec.netlists.push_back(n.as_string());
  }

  const Value* conditions = doc.find("conditions");
  if (conditions == nullptr) {
    spec.conditions.push_back(Condition{});
  } else {
    for (const Value& c : conditions->as_array()) {
      spec.conditions.push_back(condition_from_json(c));
    }
  }

  for (const Value& a : doc.at("analyses").as_array()) {
    // at() throws invalid_argument listing the registered names.
    spec.analyses.emplace_back(
        analysis::AnalysisRegistry::global().at(a.as_string()).name());
  }

  if (const Value* params = doc.find("params")) {
    params_from_json(*params, spec.params);
  }

  if (const Value* n = doc.find("n_threads")) {
    spec.n_threads =
        static_cast<int>(integer_in(*n, "spec key", "n_threads", 0, 1e9));
  }
  if (const Value* n = doc.find("shards")) {
    spec.shards = static_cast<int>(integer_in(*n, "spec key", "shards", 1, 16));
  }
  if (spec.shards != 1 && spec.shards != 2 && spec.shards != 4 &&
      spec.shards != 8 && spec.shards != 16) {
    throw std::invalid_argument("campaign: shards must be 1, 2, 4, 8 or 16");
  }
  spec.cut_dffs = doc.bool_or("cut_dffs", false);
  return spec;
}

/// A CLI flag value as JSON: what it parses as (a number, boolean, array,
/// or the literal NaN/Infinity), else a number when strtod takes all of it
/// ("nan", "inf", "1e300"), else the string itself.
Value flag_value(const std::string& text) {
  try {
    return common::json::parse(text);
  } catch (const std::runtime_error&) {
  }
  char* end = nullptr;
  const double d = std::strtod(text.c_str(), &end);
  if (!text.empty() && *end == '\0') return Value(d);
  return Value(text);
}

}  // namespace

std::string Task::key(const CampaignParams& params) const {
  const analysis::Analysis& a =
      analysis::AnalysisRegistry::global().at(analysis);
  return netlist + "|" + condition.label() + "|" + analysis + "|" +
         a.fingerprint(params);
}

CampaignSpec spec_from_json(const common::json::Value& doc) {
  CampaignSpec spec = parse_spec(doc);
  if (spec.netlists.empty() || spec.conditions.empty() ||
      spec.analyses.empty()) {
    throw std::invalid_argument(
        "campaign: netlists, conditions and analyses must all be non-empty");
  }
  return spec;
}

CampaignSpec spec_from_args(const std::string& verb,
                            const std::string& circuit,
                            const std::vector<std::string>& flags) {
  const analysis::Analysis* reader =
      analysis::AnalysisRegistry::global().find(verb);
  Value doc, condition = Value(common::json::Object{}),
             params = Value(common::json::Object{});
  doc.set("name", verb);
  doc.set("netlists", common::json::Array{Value(circuit)});
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (!flags[i].starts_with("--") || flags[i].size() == 2) {
      throw std::invalid_argument("expected --<key> [value], got \"" +
                                  flags[i] + "\"");
    }
    std::string key = flags[i].substr(2);
    std::replace(key.begin(), key.end(), '-', '_');
    const bool has_value =
        i + 1 < flags.size() && !flags[i + 1].starts_with("--");
    Value value = has_value ? flag_value(flags[++i]) : Value(true);
    if (key == "ras" || key == "t_active" || key == "t_standby" ||
        key == "years") {
      condition.set(std::move(key), std::move(value));
    } else if (key == "threads") {
      doc.set("n_threads", std::move(value));
    } else if (key == "cut_dffs") {
      doc.set("cut_dffs", std::move(value));
    } else {
      params.set(std::move(key), std::move(value));
    }
  }
  doc.set("conditions", common::json::Array{condition});
  doc.set("analyses", reader == nullptr ? common::json::Array{}
                                        : common::json::Array{Value(verb)});
  doc.set("params", params);
  CampaignSpec spec = reader == nullptr ? parse_spec(doc) : spec_from_json(doc);

  // A flag that moves Params but not the verb's fingerprint is a knob the
  // verb would silently ignore (the fingerprint covers exactly what an
  // analysis reads; a verb outside the registry reads no params).
  auto fingerprint = [&](const CampaignParams& p) {
    return reader == nullptr ? std::string() : reader->fingerprint(p);
  };
  const std::string full = fingerprint(spec.params);
  for (const auto& [name, _] : params.as_object()) {
    CampaignParams without;
    for (const auto& [other, value] : params.as_object()) {
      if (other != name) set_param(without, other, value);
    }
    if (without != spec.params && fingerprint(without) == full) {
      std::string flag = "--" + name;
      std::replace(flag.begin(), flag.end(), '_', '-');
      throw std::invalid_argument(flag + " is not read by " + verb);
    }
  }
  return spec;
}

CampaignSpec load_spec(const std::string& path) {
  return spec_from_json(common::json::load_file(path));
}

std::string fnv1a_hex(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<Task> expand(const CampaignSpec& spec) {
  if (spec.netlists.empty() || spec.conditions.empty() ||
      spec.analyses.empty()) {
    throw std::invalid_argument("campaign: cannot expand an empty grid axis");
  }
  std::vector<Task> tasks;
  tasks.reserve(spec.netlists.size() * spec.conditions.size() *
                spec.analyses.size());
  for (const std::string& nl : spec.netlists) {
    for (const Condition& cond : spec.conditions) {
      for (const std::string& a : spec.analyses) {
        Task t;
        t.index = static_cast<int>(tasks.size());
        t.netlist = nl;
        t.condition = cond;
        t.analysis = a;
        t.hash = fnv1a_hex(t.key(spec.params));
        tasks.push_back(std::move(t));
      }
    }
  }
  return tasks;
}

}  // namespace nbtisim::campaign
