#include "analysis/context.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "netlist/bench_io.h"
#include "netlist/generators.h"
#include "netlist/verilog_io.h"
#include "opt/mlv.h"
#include "tech/units.h"

namespace nbtisim::analysis {

namespace {

/// Reads all of \p text as a decimal integer into \p out; false when it is
/// not one (a '+', space, fraction or trailing character) or overflows
/// \p out. Every caller's lower bound rejects a '-'.
template <typename T>
bool read_integer(std::string_view text, T& out) {
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc() && end == last;
}

/// "dag:8x40@3" -> "dag_8x40_3".
std::string generator_name(std::string name) {
  for (char& c : name) {
    if (c == ':' || c == '@') c = '_';
  }
  return name;
}

}  // namespace

netlist::Netlist load_netlist_spec(const std::string& spec, bool cut_dffs) {
  if (spec.starts_with("dag:")) {
    const std::string_view body = std::string_view(spec).substr(4);
    const std::size_t x = body.find('x');
    const std::size_t at = body.find('@', x);  // npos when x is
    int n_inputs = 0, n_gates = 0;
    std::uint64_t seed = 0;
    if (at == std::string_view::npos ||
        !read_integer(body.substr(0, x), n_inputs) ||
        !read_integer(body.substr(x + 1, at - x - 1), n_gates) ||
        !read_integer(body.substr(at + 1), seed) || n_inputs < 2 ||
        n_gates < 1) {
      throw std::invalid_argument(
          "campaign: bad generator spec \"" + spec +
          "\" (expected dag:<inputs>x<gates>@<seed>)");
    }
    return netlist::make_random_dag(
        generator_name(spec),
        {.n_inputs = n_inputs, .n_outputs = std::max(2, n_inputs / 2),
         .n_gates = n_gates, .seed = seed, .locality = 0.75});
  }
  if (spec.starts_with("mult:") || spec.starts_with("alu:")) {
    const bool is_mult = spec.starts_with("mult:");
    int width = 0;
    if (!read_integer(std::string_view(spec).substr(spec.find(':') + 1),
                     width) ||
        width < 2) {
      throw std::invalid_argument("campaign: bad generator spec \"" + spec +
                                  "\" (expected " +
                                  (is_mult ? "mult:<bits>" : "alu:<width>") +
                                  " with size >= 2)");
    }
    return is_mult ? netlist::make_multiplier(generator_name(spec), width)
                   : netlist::make_alu(generator_name(spec), width);
  }
  if (spec.ends_with(".v")) return netlist::load_verilog(spec);
  if (spec.find('/') != std::string::npos || spec.ends_with(".bench")) {
    std::ifstream probe(spec);
    if (!probe) throw std::runtime_error("campaign: cannot open " + spec);
    std::ostringstream ss;
    ss << probe.rdbuf();
    std::string name = spec;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name.erase(0, slash + 1);
    return netlist::parse_bench(ss.str(), name, {.cut_dffs = cut_dffs});
  }
  return netlist::iscas85_like(spec);
}

EvalContext ContextPool::context(const std::string& netlist_spec,
                                 const Condition& cond) {
  return EvalContext(this, netlist_spec, cond);
}

namespace {

/// Fetches (or creates) the slot for \p key under \p mutex, then runs
/// \p build under the slot's own once_flag, and returns the slot's value
/// (slots are never erased, so it lives as long as the pool). Distinct keys
/// build concurrently; a throwing build resets the flag so a later caller
/// retries (std::call_once semantics).
template <typename T, typename Map, typename Build>
std::shared_ptr<T> fill_slot(std::mutex& mutex, Map& map,
                             const std::string& key, Build&& build) {
  std::shared_ptr<typename Map::mapped_type::element_type> slot;
  {
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = map.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<typename Map::mapped_type::element_type>();
    }
    slot = it->second;
  }
  std::call_once(slot->once, [&] { slot->value = build(); });
  return slot->value;
}

}  // namespace

const netlist::Netlist& ContextPool::netlist_for(const std::string& nl_spec) {
  return *fill_slot<netlist::Netlist>(mutex_, netlists_, nl_spec, [&] {
    return std::make_shared<netlist::Netlist>(
        load_netlist_spec(nl_spec, cut_dffs_));
  });
}

const aging::AgingAnalyzer& ContextPool::analyzer_for(
    const std::string& nl_spec, const Condition& cond) {
  const std::string key = nl_spec + "|" + cond.label();
  const netlist::Netlist& nl = netlist_for(nl_spec);
  return *fill_slot<aging::AgingAnalyzer>(mutex_, analyzers_, key, [&] {
    aging::AgingConditions c;
    c.schedule = nbti::ModeSchedule::from_ras(cond.ras_active,
                                              cond.ras_standby, 1000.0,
                                              cond.t_active, cond.t_standby);
    c.total_time = context(nl_spec, cond).horizon();
    c.sp_vectors = params_.sp_vectors;
    c.seed = params_.seed;
    return std::make_shared<aging::AgingAnalyzer>(nl, lib_, std::move(c));
  });
}

const leakage::LeakageAnalyzer& ContextPool::leakage_for(
    const std::string& nl_spec, const Condition& cond) {
  const netlist::Netlist& nl = netlist_for(nl_spec);
  const std::string temp = fmt_g(cond.t_standby);
  return *fill_slot<leakage::LeakageAnalyzer>(
      mutex_, leakages_, nl_spec + "|" + temp, [&] {
        std::shared_ptr<tech::LeakageTable> table =
            fill_slot<tech::LeakageTable>(mutex_, tables_, temp, [&] {
              return std::make_shared<tech::LeakageTable>(lib_,
                                                          cond.t_standby);
            });
        return std::make_shared<leakage::LeakageAnalyzer>(nl, lib_,
                                                          std::move(table));
      });
}

double EvalContext::horizon() const { return cond_.years * kSecondsPerYear; }

std::vector<bool> standby_vector(EvalContext& ctx, const std::string& standby) {
  const int n = ctx.netlist().num_inputs();
  if (standby.empty() || standby == "zeros") return std::vector<bool>(n, false);
  if (standby == "ones") return std::vector<bool>(n, true);
  if (standby == "mlv") {
    const opt::MlvResult mlv = opt::find_mlv_set(ctx.standby_leakage());
    if (mlv.vectors.empty()) {
      throw std::runtime_error("standby mlv: MLV search returned no vector");
    }
    return mlv.vectors.front();
  }
  throw std::invalid_argument("\"standby\": \"" + standby +
                              "\" is a policy, not an input vector "
                              "(expected zeros|ones|mlv)");
}

aging::StandbyPolicy standby_policy(EvalContext& ctx,
                                    const std::string& standby) {
  if (standby.empty() || standby == "stressed") {
    return aging::StandbyPolicy::all_stressed();
  }
  if (standby == "relaxed") return aging::StandbyPolicy::all_relaxed();
  return aging::StandbyPolicy::from_vector(standby_vector(ctx, standby));
}

}  // namespace nbtisim::analysis
