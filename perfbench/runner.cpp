/// \file runner.cpp
/// \brief One pass of one benchmark workload, in a process of its own.
///
///   perfbench_runner --config workloads.json --workload NAME --seed N
///                    --work DIR [--smoke] [--trace] [--threads 2]
///                    [--oracle] [--inject-fault]
///
/// Creates DIR and works inside it: set-up, then one timed pass (a grid
/// pass into an empty store, or the query client's requests). Prints one
/// JSON record on stdout; perfbench/run.py starts one process per pass
/// and aggregates the records. A pass never follows another pass in the
/// same process, so no process-wide cache is inherited.
///
/// The pass runs inside a common::WorkPool task on the main thread, so
/// every nested parallel_for runs serially on it (common/pool.h), and the
/// layers called directly get n_threads = 1. --threads 2 instead runs
/// run_campaign at n_threads = 2, the only multi-threaded pass.
///
/// --trace drives the same work through the layers' public functions with
/// a span around each call (span.h) and adds per-layer totals.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "campaign/engine.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "common/pool.h"
#include "common/rng.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "query/query.h"
#include "query/serve.h"
#include "query_client.h"
#include "report/report.h"
#include "span.h"

namespace {

namespace fs = std::filesystem;
namespace json = nbtisim::common::json;
namespace campaign = nbtisim::campaign;
namespace analysis = nbtisim::analysis;
using json::Value;
using perfbench::Clock;
using perfbench::seconds_since;
using perfbench::Tracer;

constexpr const char* kStore = "store.jsonl";

const char* const kAnalysisKinds[] = {
    "aging", "ivc",         "st",      "thermal", "derate",
    "lifetime", "criticality", "failure", "multi",   "sizing"};

struct Options {
  std::string config;
  std::string workload;
  std::uint64_t seed = 1;
  std::string work;
  bool smoke = false;
  bool trace = false;
  int threads = 1;
  bool oracle = false;
  bool inject_fault = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--config") {
      o.config = value();
    } else if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--work") {
      o.work = value();
    } else if (a == "--threads") {
      o.threads = std::stoi(value());
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--oracle") {
      o.oracle = true;
    } else if (a == "--inject-fault") {
      o.inject_fault = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.config.empty() || o.workload.empty() || o.work.empty()) {
    throw std::invalid_argument("--config, --workload and --work are required");
  }
  if (o.threads != 1 && o.threads != 2) {
    throw std::invalid_argument("--threads must be 1 or 2");
  }
  return o;
}

/// Runs \p f inside a WorkPool task on the calling thread (see file
/// comment). The loop has two indices so that the pool's one extra
/// participant can take an index too: it sleeps until \p f is done. Were
/// \p f to run on the pool worker instead, its allocations would land in
/// another malloc arena, and peak RSS and timings would flip between two
/// modes from run to run.
template <typename F>
void on_one_thread(F&& f) {
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  bool ran = false;  // read and written by the caller only
  auto body = [&](int) {
    if (std::this_thread::get_id() != caller) {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return done; });
      return;
    }
    if (ran) return;
    ran = true;
    struct Release {
      std::mutex& m;
      std::condition_variable& cv;
      bool& done;
      ~Release() {
        {
          std::lock_guard<std::mutex> lock(m);
          done = true;
        }
        cv.notify_all();
      }
    } release{m, cv, done};
    f();
  };
  using Body = decltype(body);
  nbtisim::common::WorkPool::global().run(
      2, 2, 1,
      [](void* ctx, int begin, int end) {
        for (int i = begin; i < end; ++i) (*static_cast<Body*>(ctx))(i);
      },
      &body);
}

/// A fixed loop that calls no nbtisim code: tells a change of host speed
/// apart from a change of code between two sets of runs.
double host_calibration_s() {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    double acc = 0.0;
    for (int i = 0; i < 5'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    volatile double sink = acc;
    (void)sink;
    times.push_back(seconds_since(t0));
  }
  return perfbench::quantile(times, 0.5);
}

/// The memory-bound counterpart: a dependent random walk over a 16 MB
/// cycle, which slows when neighbours contend for the shared cache and
/// memory while the arithmetic loop above does not.
double host_memory_calibration_s() {
  std::vector<std::uint32_t> next(1u << 22);
  std::mt19937_64 rng(1);
  for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  for (std::size_t i = next.size() - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng() % i]);
  }
  const Clock::time_point t0 = Clock::now();
  std::uint32_t at = 0;
  for (int i = 0; i < 300'000; ++i) at = next[at];
  volatile std::uint32_t sink = at;
  (void)sink;
  return seconds_since(t0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports kilobytes
}

std::string with_seed(std::string s, std::uint64_t seed) {
  const std::size_t at = s.find("{seed}");
  if (at != std::string::npos) s.replace(at, 6, std::to_string(seed));
  return s;
}

/// \p base with the members of \p over replacing its own (one level).
Value merged(const Value& base, const Value* over) {
  Value out = base;
  if (over != nullptr) {
    for (const auto& [k, v] : over->as_object()) out.set(k, v);
  }
  return out;
}

std::vector<std::pair<std::string, int>> mix_of(const Value& mix) {
  std::vector<std::pair<std::string, int>> out;
  for (const auto& [shape, w] : mix.as_object()) {
    out.emplace_back(shape, static_cast<int>(w.as_number()));
  }
  return out;
}

/// Byte digest of every store shard and sidecar file in \p dir
/// (store.3.jsonl, store.3.index.jsonl, ...); their total size goes to
/// \p bytes.
Value file_digests(const std::string& dir, std::uint64_t* bytes) {
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.starts_with("store") && name.ends_with(".jsonl")) {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  Value out = Value(json::Object{});
  *bytes = 0;
  for (const fs::path& p : files) {
    std::ifstream f(p, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    const std::string content = ss.str();
    *bytes += content.size();
    out.set(p.filename().string(), campaign::fnv1a_hex(content));
  }
  return out;
}

struct PassFigures {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

template <typename F>
PassFigures timed(F&& f) {
  const double cpu0 = perfbench::process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  f();
  return {seconds_since(t0), perfbench::process_cpu_s() - cpu0};
}

Value counters_to_json(const std::map<std::string, double>& m) {
  Value out = Value(json::Object{});
  for (const auto& [k, v] : m) out.set(k, v);
  return out;
}

/// Total time of the spans named \p span.
double span_total(const std::map<std::string, Tracer::Totals>& t,
                  const std::string& span) {
  const auto it = t.find(span);
  return it == t.end() ? 0.0 : it->second.total_s;
}

/// Time of a pass not spent inside any layer span: the root's own time
/// plus the own time of every per-task (or per-request) span.
double unattributed_s(const std::map<std::string, Tracer::Totals>& t,
                      std::initializer_list<const char*> roots) {
  double s = 0.0;
  for (const char* r : roots) {
    const auto it = t.find(r);
    if (it != t.end()) s += it->second.self_s;
  }
  return s;
}

void add_query_layers(std::map<std::string, double>& layers,
                      const std::map<std::string, Tracer::Totals>& t,
                      const perfbench::ClientResult& cr) {
  layers["query.open_s"] = span_total(t, "query.open");
  layers["query.opens"] = cr.opens + 1;  // + the serving view of the set-up
  layers["query.parse_s"] = span_total(t, "query.parse");
  layers["query.eval_s"] = span_total(t, "query.eval");
  layers["query.render_s"] = span_total(t, "query.render");
  layers["query.index_entries"] = static_cast<double>(cr.sums.index_entries);
  layers["query.rows_parsed"] = static_cast<double>(cr.sums.rows_parsed);
  layers["query.rows_matched"] = static_cast<double>(cr.sums.rows_matched);
  layers["query.match_ratio"] =
      cr.sums.rows_parsed == 0
          ? 0.0
          : static_cast<double>(cr.matched_of_parsed) / cr.sums.rows_parsed;
}

Value client_summary(const perfbench::ClientResult& cr) {
  double warm_total_s = 0.0;
  for (double ms : cr.warm_ms) warm_total_s += 1e-3 * ms;
  Value q;
  auto array = [](const std::vector<double>& v) {
    json::Array a;
    for (double x : v) a.emplace_back(x);
    return Value(std::move(a));
  };
  q.set("warm_ms", array(cr.warm_ms));
  q.set("cold_ms", array(cr.cold_ms));
  q.set("warm_s", warm_total_s);
  q.set("digest", cr.digest);
  Value by_shape = Value(json::Object{});
  for (const auto& [shape, ms] : cr.warm_ms_by_shape) {
    by_shape.set(shape, perfbench::quantile(ms, 0.5));
  }
  q.set("p50_ms_by_shape", std::move(by_shape));
  q.set("mismatches", cr.mismatches);
  return q;
}

Value oracle_checks(const std::string& store_path,
                    const nbtisim::query::StoreView& view,
                    const std::vector<perfbench::Request>& requests,
                    bool corrupt) {
  json::Array out;
  for (const auto& [shape, ok] :
       perfbench::check_with_oracle(store_path, view, requests, corrupt)) {
    Value c;
    c.set("name", "oracle:" + shape);
    c.set("ok", Value(ok));
    out.push_back(std::move(c));
  }
  return Value(std::move(out));
}

// ---------------------------------------------------------------- grids ---

/// A store row exactly as the campaign engine writes it.
Value make_row(const campaign::CampaignSpec& spec, const campaign::Task& task,
               analysis::EvalContext& ctx, analysis::Metrics metrics) {
  Value metrics_obj;
  for (auto& [name, value] : metrics) {
    metrics_obj.set(std::move(name), std::move(value));
  }
  Value row;
  row.set("hash", task.hash);
  row.set("campaign", spec.name);
  row.set("netlist", ctx.netlist().name());
  row.set("netlist_spec", task.netlist);
  char ras[32];
  std::snprintf(ras, sizeof ras, "%g:%g", task.condition.ras_active,
                task.condition.ras_standby);
  row.set("ras", std::string(ras));
  row.set("t_active", task.condition.t_active);
  row.set("t_standby", task.condition.t_standby);
  row.set("years", task.condition.years);
  row.set("analysis", task.analysis);
  row.set("metrics", std::move(metrics_obj));
  return row;
}

/// run_campaign's task loop, replayed through the layers' public pieces
/// with a span around each call. Contexts an analysis uses are resolved in
/// their own spans first, so their builds are not charged to the analysis.
void traced_grid_pass(const campaign::CampaignSpec& spec, Tracer& tr,
                      std::map<std::string, double>& layers) {
  Tracer::Scope pass(tr, "campaign.pass");
  std::vector<campaign::Task> grid;
  {
    Tracer::Scope s(tr, "campaign.expand");
    grid = campaign::expand(spec);
  }
  std::optional<campaign::ShardedStore> store;
  {
    Tracer::Scope s(tr, "campaign.open");
    store.emplace(kStore, spec.shards);
  }
  analysis::ContextPool pool(spec.params, spec.cut_dffs);
  std::set<std::string> netlists, leakages;
  std::map<std::string, std::pair<std::string, analysis::Condition>> agings;
  constexpr std::size_t kBatch = 32;  // run_campaign's batch size
  for (std::size_t begin = 0; begin < grid.size(); begin += kBatch) {
    const std::size_t end = std::min(grid.size(), begin + kBatch);
    std::vector<Value> rows;
    for (std::size_t i = begin; i < end; ++i) {
      const campaign::Task& task = grid[i];
      Tracer::Scope t(tr, "campaign.task", task.index);
      const analysis::Analysis& a =
          analysis::AnalysisRegistry::global().at(task.analysis);
      analysis::EvalContext ctx = pool.context(task.netlist, task.condition);
      {
        Tracer::Scope s(tr, "netlist.load");
        ctx.netlist();
      }
      netlists.insert(task.netlist);
      if (task.analysis != "thermal") {
        Tracer::Scope s(tr, "aging.context");
        ctx.aging();
        agings.try_emplace(task.netlist + "|" + task.condition.label(),
                           task.netlist, task.condition);
      }
      if (task.analysis == "ivc" || task.analysis == "pareto") {
        // The analyses that read ctx.standby_leakage().
        Tracer::Scope s(tr, "leakage.context");
        ctx.standby_leakage();
        char ts[32];
        std::snprintf(ts, sizeof ts, "|%g", task.condition.t_standby);
        leakages.insert(task.netlist + ts);
      }
      analysis::Metrics m;
      {
        Tracer::Scope s(tr, "analysis." + task.analysis);
        m = a.run(ctx, spec.params);
      }
      rows.push_back(make_row(spec, task, ctx, std::move(m)));
    }
    Tracer::Scope s(tr, "campaign.append");
    store->append(rows);
  }
  double stress_builds = 0.0;
  for (const auto& [key, cell] : agings) {
    stress_builds += static_cast<double>(
        pool.context(cell.first, cell.second).aging().stress_build_count());
  }
  layers["netlist.loads"] = static_cast<double>(netlists.size());
  layers["aging.contexts"] = static_cast<double>(agings.size());
  layers["aging.stress_builds"] = stress_builds;
  layers["leakage.contexts"] = static_cast<double>(leakages.size());
  layers["campaign.rows"] = static_cast<double>(grid.size());
}

/// Exact work counters read from the stored task metrics.
void task_counters(const std::vector<const Value*>& rows,
                   const campaign::CampaignSpec& spec,
                   std::map<std::string, double>& layers) {
  double mlv = 0, iterations = 0, extra_tables = 0, moves = 0, rounds = 0;
  for (const Value* row : rows) {
    const std::string& a = row->at("analysis").as_string();
    const Value& m = row->at("metrics");
    if (a == "ivc") mlv += m.at("n_mlv").as_number();
    if (a == "thermal") {
      iterations += m.at("iterations").as_number();
      // A solve that exhausted its iterations characterizes once more.
      if (m.at("converged").as_number() == 0.0 &&
          m.at("temp_k").as_number() < spec.params.thermal_runaway_k) {
        extra_tables += 1;
      }
    }
    if (a == "sizing") {
      moves += m.at("moves").as_number();
      rounds += m.at("rounds").as_number();
    }
  }
  layers["opt.mlv_candidates"] = mlv;
  layers["thermal.iterations"] = iterations;
  layers["leakage.tables"] =
      layers["leakage.contexts"] + iterations + extra_tables;
  layers["opt.sizing_moves"] = moves;
  layers["opt.sizing_rounds"] = rounds;
}

Value run_grid(const Options& o, const Value& wl) {
  Value spec_doc = wl.at("spec");
  {
    Value params = spec_doc.at("params");
    params.set("seed", static_cast<double>(o.seed));
    spec_doc.set("params", std::move(params));
  }
  const std::string spec_text = json::dump(spec_doc);
  // The set-up is timed as one block, repeated until the block lasts at
  // least `block_s`: a set-up of a fraction of a millisecond is then timed
  // over an interval long enough to average scheduler noise out. setup_s
  // is the block's time per set-up.
  const double block_s = wl.at("setup").number_or("block_s", 0.0);

  Value record;
  campaign::CampaignSpec spec;
  double setup_s = 0.0;
  int setup_reps = 0;
  on_one_thread([&] {
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
      if (const Value* gen = wl.find("generate")) {
        for (const Value& g : gen->as_array()) {
          const nbtisim::netlist::Netlist nl = analysis::load_netlist_spec(
              with_seed(g.at("spec").as_string(), o.seed), false);
          const std::string& file = g.at("file").as_string();
          nbtisim::report::write_file(
              file, file.ends_with(".v") ? nbtisim::netlist::write_verilog(nl)
                                         : nbtisim::netlist::write_bench(nl));
        }
      }
      spec = campaign::spec_from_json(json::parse(spec_text));
      const std::vector<campaign::Task> grid = campaign::expand(spec);
      const campaign::ShardedStore store(kStore, spec.shards);
      if (grid.empty() || store.size() != 0) {
        throw std::runtime_error("set-up: empty grid or non-empty store");
      }
      ++setup_reps;
      elapsed = seconds_since(t0);
    } while (elapsed < block_s);
    setup_s = elapsed / setup_reps;
  });

  Tracer tracer;
  std::map<std::string, double> layers;
  PassFigures pass;
  if (o.threads == 2) {
    spec.n_threads = 2;
    pass = timed([&] { campaign::run_campaign(spec, kStore); });
  } else if (o.trace) {
    pass = timed([&] {
      on_one_thread([&] { traced_grid_pass(spec, tracer, layers); });
    });
  } else {
    spec.n_threads = 1;
    pass = timed([&] {
      on_one_thread([&] { campaign::run_campaign(spec, kStore); });
    });
  }

  // Everything below is off the clock.
  const campaign::ShardedStore store(kStore, spec.shards);
  const std::vector<const Value*> rows = store.all_rows();
  std::map<std::string, const Value*> by_hash;
  for (const Value* row : rows) by_hash[row->at("hash").as_string()] = row;
  json::Array tasks;
  bool corrupted = false;
  for (const campaign::Task& t : campaign::expand(spec)) {
    Value task;
    task.set("key", t.netlist + "|" + t.condition.label() + "|" + t.analysis);
    task.set("analysis", t.analysis);
    const auto it = by_hash.find(t.hash);
    Value metrics = Value(json::Object{});
    if (it != by_hash.end()) {
      for (const auto& [name, v] : it->second->at("metrics").as_object()) {
        if (v.is_number()) metrics.set(name, v);
      }
    }
    if (o.inject_fault && !corrupted && t.analysis == "aging") {
      // A deliberately wrong answer: all-relaxed above all-stressed.
      metrics.set("best_pct", metrics.at("worst_pct").as_number() + 1.0);
      corrupted = true;
    }
    task.set("present", Value(it != by_hash.end()));
    task.set("metrics", std::move(metrics));
    tasks.push_back(std::move(task));
  }
  std::uint64_t bytes = 0;
  record.set("files", file_digests(".", &bytes));
  record.set("tasks", Value(std::move(tasks)));
  record.set("attempted", static_cast<double>(by_hash.size()));

  if (o.trace) {
    const auto totals = tracer.totals();
    layers["netlist.load_s"] = span_total(totals, "netlist.load");
    layers["aging.context_s"] = span_total(totals, "aging.context");
    layers["leakage.context_s"] = span_total(totals, "leakage.context");
    for (const char* kind : kAnalysisKinds) {
      const auto it = totals.find(std::string("analysis.") + kind);
      layers[std::string("analysis.") + kind + "_s"] =
          it == totals.end() ? 0.0 : it->second.self_s;
    }
    layers["campaign.expand_s"] = span_total(totals, "campaign.expand");
    layers["campaign.append_s"] = span_total(totals, "campaign.append");
    layers["campaign.bytes"] = static_cast<double>(bytes);
    layers["trace.unattributed_s"] =
        unattributed_s(totals, {"campaign.pass", "campaign.task"});
    task_counters(rows, spec, layers);
  }

  record.set("setup_s", setup_s);
  record.set("setup_reps", setup_reps);
  record.set("pass_s", pass.wall_s);
  record.set("pass_cpu_s", pass.cpu_s);

  if (o.trace) {
    record.set("layers", counters_to_json(layers));
    std::ofstream spans("spans.jsonl");
    tracer.write(spans, "pass");
  }
  return record;
}

// ------------------------------------------------------------ query_mix ---

struct MetricShape {
  const char* analysis;
  std::vector<std::string> names;
  const char* payload;  ///< structured member, or nullptr
};

/// Metric names of each analysis's real store rows (src/analysis/*).
std::vector<MetricShape> row_shapes() {
  std::vector<std::string> derate;
  for (const char* tag : {"worst", "vec0", "best"}) {
    for (const char* y : {"1", "2", "3", "5", "7", "10"}) {
      derate.push_back(std::string(tag) + "_y" + y);
    }
  }
  return {
      {"aging", {"fresh_ns", "aged_worst_ns", "worst_pct",
                 "worst_half_horizon_pct", "vector0_pct", "best_pct"}, nullptr},
      {"criticality", {"distinct_paths", "critical_gates", "max_prob"},
       "gate_prob"},
      {"derate", derate, nullptr},
      {"failure", {"mttf_nbti_years", "mttf_pbti_years", "mttf_hci_years",
                   "mttf_tddb_years", "mttf_em_years", "system_mttf_years",
                   "fail_at_y1", "fail_at_y2", "fail_at_y5", "fail_at_y10",
                   "fail_at_y20", "fail_at_y30"}, "curve"},
      {"ivc", {"worst_pct", "best_mlv_pct", "best_mlv_leak_ua",
               "mlv_spread_pct", "random_ref_pct", "inc_bound_pct", "n_mlv"},
       nullptr},
      {"lifetime", {"median_years", "p01_years", "fail_at_horizon_pct",
                    "survivor_pct"}, nullptr},
      {"multi", {"fresh_ns", "nbti_pct", "multi_pct", "pmos_mv", "nmos_mv"},
       nullptr},
      {"pareto", {"front_size", "evaluated", "min_leak_ua", "min_leak_deg_pct",
                  "min_deg_pct", "min_deg_leak_ua", "balanced_leak_ua",
                  "balanced_deg_pct", "deg_range_pct"}, "front"},
      {"sizing", {"spec_ns", "aged_before_ns", "aged_after_ns",
                  "area_overhead_pct", "guard_band_pct", "moves", "rounds",
                  "met"}, nullptr},
      {"st", {"st_total_pct", "st_logic_pct", "st_drop_pct", "no_st_pct",
              "wl_base", "wl_nbti_aware", "wl_increase_pct", "st_dvth_mv"},
       nullptr},
      {"thermal", {"temp_k", "leakage_w", "iterations", "converged"}, nullptr},
  };
}

/// Rows shaped like a campaign's: every coordinate combination × every
/// analysis, metric values and payloads drawn from \p seed.
std::vector<Value> generate_rows(const Value& cfg, std::uint64_t seed) {
  std::mt19937_64 rng(nbtisim::common::splitmix64(seed ^ 0x726f7773ull));
  auto unit = [&] { return (rng() >> 11) * 0x1.0p-53; };
  const int n_netlists = cfg.int_or("netlists", 0);
  const int points = cfg.int_or("front_points", 8);
  const std::vector<MetricShape> shapes = row_shapes();
  std::vector<Value> rows;
  for (int n = 0; n < n_netlists; ++n) {
    char nl[16];
    std::snprintf(nl, sizeof nl, "q%02d", n);
    for (const Value& ras : cfg.at("ras").as_array()) {
      for (const Value& ts : cfg.at("t_standby").as_array()) {
        for (const Value& years : cfg.at("years").as_array()) {
          for (const MetricShape& s : shapes) {
            Value metrics;
            for (const std::string& name : s.names) {
              metrics.set(name, 20.0 * unit());
            }
            if (s.payload != nullptr) {
              json::Array payload;
              for (int p = 0; p < points; ++p) {
                payload.emplace_back(json::Object{{"x", Value(unit())},
                                                  {"y", Value(unit())}});
              }
              metrics.set(s.payload, Value(std::move(payload)));
            }
            Value row;
            const std::string key =
                std::string(nl) + "|" + ras.as_string() + "|" +
                json::format_number(ts.as_number()) + "|" +
                json::format_number(years.as_number()) + "|" + s.analysis;
            row.set("hash", campaign::fnv1a_hex(key));
            row.set("campaign", "query_mix");
            row.set("netlist", nl);
            row.set("netlist_spec", nl);
            row.set("ras", ras);
            row.set("t_active", cfg.at("t_active"));
            row.set("t_standby", ts);
            row.set("years", years);
            row.set("analysis", s.analysis);
            row.set("metrics", std::move(metrics));
            rows.push_back(std::move(row));
          }
        }
      }
    }
  }
  return rows;
}

Value run_query_mix(const Options& o, const Value& wl) {
  const std::vector<Value> rows = generate_rows(wl.at("rows"), o.seed);
  const int shards = wl.int_or("shards", 16);
  const std::size_t batch = static_cast<std::size_t>(wl.int_or("batch", 32));

  // The set-up is one ingest of every row, long enough to time as a block.
  Tracer tracer;
  Tracer* tr = o.trace ? &tracer : nullptr;
  double setup_s = 0.0;
  std::optional<nbtisim::query::StoreView> view;
  const std::string dir = "ingest";
  const std::string store_path = dir + "/" + kStore;
  fs::create_directories(dir);
  on_one_thread([&] {
    const Clock::time_point t0 = Clock::now();
    {
      std::optional<Tracer::Scope> s;
      if (tr != nullptr) s.emplace(*tr, "store.ingest");
      campaign::ShardedStore store(store_path, shards);
      for (std::size_t b = 0; b < rows.size(); b += batch) {
        const std::size_t n = std::min(batch, rows.size() - b);
        store.append(std::span<const Value>(rows.data() + b, n));
      }
    }
    {
      std::optional<Tracer::Scope> s;
      if (tr != nullptr) s.emplace(*tr, "query.open");
      view.emplace(store_path);
    }
    setup_s = seconds_since(t0);
  });
  if (view->total_rows() != rows.size()) {
    throw std::runtime_error("set-up: the view does not see every row");
  }

  std::uint64_t bytes = 0;
  Value record;
  record.set("files", file_digests(dir, &bytes));

  const perfbench::Universe u = perfbench::universe_of([&] {
    std::vector<const Value*> p;
    for (const Value& r : rows) p.push_back(&r);
    return p;
  }());
  const std::vector<perfbench::Request> requests = perfbench::make_requests(
      u, mix_of(wl.at("mix")), wl.int_or("requests", 0),
      wl.int_or("cold_every", 0), o.seed);
  Tracer client_tracer;
  perfbench::ClientResult cr;
  on_one_thread([&] {
    cr = perfbench::run_client(store_path, *view, requests,
                               o.trace ? &client_tracer : nullptr);
  });

  record.set("setup_s", setup_s);
  record.set("setup_reps", 1);
  record.set("pass_s", cr.wall_s);
  record.set("pass_cpu_s", cr.cpu_s);
  record.set("query", client_summary(cr));
  record.set("attempted", static_cast<double>(requests.size()));
  if (o.oracle) {
    record.set("checks",
               oracle_checks(store_path, *view, requests, o.inject_fault));
  }
  if (o.trace) {
    std::map<std::string, double> layers;
    const auto setup_totals = tracer.totals();
    const auto totals = client_tracer.totals();
    add_query_layers(layers, totals, cr);
    layers["query.open_s"] += span_total(setup_totals, "query.open");
    layers["store.ingest_s"] = span_total(setup_totals, "store.ingest");
    layers["store.ingest_rows"] = static_cast<double>(rows.size());
    layers["store.ingest_bytes"] = static_cast<double>(bytes);
    layers["trace.unattributed_s"] = unattributed_s(totals, {"query.request"});
    record.set("layers", counters_to_json(layers));
    std::ofstream spans("spans.jsonl");
    tracer.write(spans, "setup");
    client_tracer.write(spans, "pass");
  }
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const Value cfg = json::load_file(o.config);
    const Value& all = cfg.at("workloads");
    const Value* base = all.find(o.workload);
    if (base == nullptr) {
      throw std::invalid_argument("unknown workload " + o.workload);
    }
    const Value wl = o.smoke ? merged(*base, base->find("smoke")) : *base;

    fs::create_directories(o.work);
    fs::current_path(o.work);

    Value record = o.workload == "query_mix" ? run_query_mix(o, wl)
                                             : run_grid(o, wl);
    record.set("workload", o.workload);
    record.set("seed", static_cast<double>(o.seed));
    record.set("threads", o.threads);
    record.set("peak_rss_mb", peak_rss_mb());
    record.set("pool_workers", nbtisim::common::WorkPool::global().workers());
    record.set("hardware_concurrency",
               static_cast<double>(std::thread::hardware_concurrency()));
    record.set("compiler", PERFBENCH_COMPILER);
    record.set("build_type", PERFBENCH_BUILD_TYPE);
    // After the workload and its peak RSS: the calibration's 16 MB buffer
    // would otherwise raise malloc's mmap and trim thresholds for the pass.
    record.set("calib_s", host_calibration_s());
    record.set("mem_calib_s", host_memory_calibration_s());
    std::cout << json::dump(record, -1, json::NonFinite::Null) << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}
