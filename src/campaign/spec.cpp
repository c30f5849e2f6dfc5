#include "campaign/spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <span>
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

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

using P = CampaignParams;

void set_param(CampaignParams& p, const std::string& name, const Value& v) {
  const analysis::ParamKey* key = analysis::find_param(name);
  if (key == nullptr) {
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
      // All of each part, or NaN: "1x:9" is not 1:9.
      auto part = [](std::string_view text) {
        double d = 0.0;
        const char* const last = text.data() + text.size();
        const auto [end, ec] = std::from_chars(text.data(), last, d);
        return ec == std::errc() && end == last ? d : std::nan("");
      };
      c.ras_active = part(std::string_view(v).substr(0, colon));
      c.ras_standby = part(std::string_view(v).substr(colon + 1));
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
        analysis::AnalysisRegistry::global().at(a.as_string()).name);
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
/// or the literal NaN/Infinity), else the string itself — so a flag takes
/// exactly the numbers a spec file takes, and "0x190", ".5" or "nan" reach
/// the key's check as strings.
Value flag_value(const std::string& text) {
  try {
    return common::json::parse(text);
  } catch (const std::runtime_error&) {
    return Value(text);
  }
}

/// "<netlist>|<condition label>|<analysis>|<analysis fingerprint>".
std::string task_key(std::string_view netlist, std::string_view label,
                     std::string_view analysis, std::string_view fingerprint) {
  std::string key;
  key.reserve(netlist.size() + label.size() + analysis.size() +
              fingerprint.size() + 3);
  key.append(netlist).append(1, '|').append(label).append(1, '|');
  key.append(analysis).append(1, '|').append(fingerprint);
  return key;
}

}  // namespace

std::string Task::key(const CampaignParams& params) const {
  return task_key(netlist, condition.label(), analysis,
                  analysis::AnalysisRegistry::global().at(analysis).fingerprint(
                      params));
}

CampaignSpec spec_from_json(const common::json::Value& doc) {
  CampaignSpec spec = parse_spec(doc);
  if (spec.netlists.empty() || spec.conditions.empty() ||
      spec.analyses.empty()) {
    throw std::invalid_argument(
        "campaign: netlists, conditions and analyses must all be non-empty");
  }
  // A repeated entry repeats its tasks' hashes, which the store rejects
  // only after the whole grid has run. Conditions compare by label.
  auto reject_repeats = [](const char* axis,
                           const std::vector<std::string>& keys) {
    for (std::size_t j = 1; j < keys.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (keys[i] == keys[j]) {
          throw std::invalid_argument(
              std::string("campaign: \"") + axis + "\" entry " +
              std::to_string(j) + " repeats entry " + std::to_string(i) +
              " (" + keys[j] + ")");
        }
      }
    }
  };
  std::vector<std::string> labels;
  for (const Condition& c : spec.conditions) labels.push_back(c.label());
  reject_repeats("netlists", spec.netlists);
  reject_repeats("conditions", labels);
  reject_repeats("analyses", spec.analyses);
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

  // A flag the verb does not read is a knob it would silently ignore,
  // unless it leaves Params at its default (a verb outside the registry
  // reads no params).
  const std::span<const std::string_view> reads =
      reader == nullptr ? std::span<const std::string_view>() : reader->reads;
  const CampaignParams defaults;
  for (const auto& [name, _] : params.as_object()) {
    if (std::ranges::find(reads, name) != reads.end()) continue;
    if (std::visit([&](auto f) { return spec.params.*f != defaults.*f; },
                   analysis::find_param(name)->field)) {
      std::string flag = "--" + name;
      std::replace(flag.begin(), flag.end(), '_', '-');
      throw std::invalid_argument(flag + " is not read by " + verb);
    }
  }
  return spec;
}

CampaignSpec load_spec(const std::string& path,
                       const std::optional<std::string>& threads) {
  Value doc = common::json::load_file(path);
  // --threads is the spec key n_threads, read as a verb reads it.
  if (threads.has_value()) doc.set("n_threads", flag_value(*threads));
  return spec_from_json(doc);
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
  // A fingerprint depends on the params alone: one per analysis, not per
  // task, as a label is one per condition.
  std::vector<std::string> fingerprints;
  for (const std::string& a : spec.analyses) {
    fingerprints.push_back(
        analysis::AnalysisRegistry::global().at(a).fingerprint(spec.params));
  }
  std::vector<Task> tasks;
  tasks.reserve(spec.netlists.size() * spec.conditions.size() *
                spec.analyses.size());
  for (const std::string& nl : spec.netlists) {
    for (const Condition& cond : spec.conditions) {
      const std::string label = cond.label();
      for (std::size_t a = 0; a < spec.analyses.size(); ++a) {
        Task t;
        t.index = static_cast<int>(tasks.size());
        t.netlist = nl;
        t.condition = cond;
        t.analysis = spec.analyses[a];
        t.hash = fnv1a_hex(task_key(nl, label, t.analysis, fingerprints[a]));
        tasks.push_back(std::move(t));
      }
    }
  }
  return tasks;
}

}  // namespace nbtisim::campaign
