/// \file nbtisim_main.cpp
/// \brief The `nbtisim` command-line driver.
///
///   nbtisim <analysis> <circuit> [--key value ...] [--csv PATH]
///
/// runs one registered analysis (src/analysis) as a one-cell campaign and
/// prints its scalar metrics as a `metric | value` table — the rule
/// `campaign summarize` uses for its columns. A flag is a campaign spec key
/// with '-' for '_' (campaign::spec_from_args): --ras, --t-active,
/// --t-standby and --years form the condition, --threads is the thread
/// budget, --cut-dffs cuts .bench DFFs, and every other flag is a "params"
/// key. The spec parser is the only validator, and a flag the analysis
/// does not read is an error. Beside the analyses:
///
///   nbtisim info <circuit>           circuit, fresh timing, standby leakage
///   nbtisim campaign <action> SPEC   run|resume|summarize|query|serve a grid
///   nbtisim generate <spec>          write a generated circuit as .bench/.v
///
/// <circuit> is any netlist spec the campaign grid accepts: a built-in name
/// (c432, c880, ...), a .bench or structural .v path, "dag:<inputs>x
/// <gates>@<seed>", "mult:<bits>" or "alu:<width>".

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "campaign/engine.h"
#include "common/pool.h"
#include "query/query.h"
#include "query/serve.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "report/report.h"
#include "sta/sta.h"
#include "tech/units.h"

using namespace nbtisim;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::string analyses;
  for (const std::string& name : analysis::AnalysisRegistry::global().names()) {
    analyses += " " + name;
  }
  std::fprintf(stderr,
               "usage: nbtisim <analysis> <circuit> [--key value ...] "
               "[--csv PATH]\n"
               "       nbtisim info <circuit> [--ras A:S] [--t-active K] "
               "[--t-standby K]\n"
               "       nbtisim campaign run|resume|summarize SPEC.json\n"
               "                [--out PATH] [--threads N] [--csv PATH]\n"
               "                [--format md|csv]\n"
               "       nbtisim campaign query SPEC.json\n"
               "                [--query JSON | --query-file PATH]\n"
               "                [--out PATH] [--threads N] [--csv PATH]\n"
               "                [--format md|csv|json]\n"
               "       nbtisim campaign serve SPEC.json [--out PATH]\n"
               "                [--threads N] [--port N] [--max-connections N]\n"
               "       nbtisim generate <spec> [--out PATH] [--format bench|v]\n"
               "       nbtisim --version\n"
               "analyses:%s\n"
               "  <circuit>: built-in (c432, c499, c880, c1355, c1908, c2670,\n"
               "             c3540, c5315, c6288, c7552), a .bench or .v path,\n"
               "             dag:<inputs>x<gates>@<seed>, mult:<bits>, alu:<width>\n"
               "  A flag is a campaign spec key with '-' for '_' (docs/USAGE.md):\n"
               "  --ras A:S --t-active K --t-standby K --years Y (condition),\n"
               "  --threads N (0 = hardware), --cut-dffs, and any \"params\" key:\n"
               "  --sp-vectors N --seed S --samples N --sizing-margin P ...\n",
               analyses.c_str());
  std::exit(2);
}

void emit(const report::Table& table, const std::string& csv_path) {
  std::fputs(report::to_markdown(table).c_str(), stdout);
  if (!csv_path.empty()) {
    report::write_file(csv_path, report::to_csv(table));
    std::printf("\n(csv written to %s)\n", csv_path.c_str());
  }
}

// info reads only the cell: the netlist, the fresh timing at T_active and
// the all-0 leakage at T_standby.
report::Table info_table(analysis::EvalContext& ctx) {
  const netlist::Netlist& nl = ctx.netlist();
  const sta::StaEngine sta(nl, ctx.library());
  const std::vector<bool> zeros(nl.num_inputs(), false);

  report::Table t{{"metric", "value"}, {}};
  t.add_row({"circuit", nl.name()});
  t.add_row({"primary inputs", std::to_string(nl.num_inputs())});
  t.add_row({"primary outputs", std::to_string(nl.num_outputs())});
  t.add_row({"gates", std::to_string(nl.num_gates())});
  t.add_row({"logic depth", std::to_string(nl.depth())});
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f ns",
                to_ns(sta.analyze_fresh(ctx.condition().t_active).max_delay));
  t.add_row({"fresh critical delay", buf});
  std::snprintf(buf, sizeof buf, "%.2f uA @ %g K (inputs all-0)",
                1e6 * ctx.standby_leakage().circuit_leakage(zeros),
                ctx.condition().t_standby);
  t.add_row({"standby leakage", buf});
  return t;
}

// An analysis verb: the registry's run() on the one cell, scalar metrics
// only (structured payloads such as a Pareto front have no table cell).
report::Table metric_table(const std::string& verb, analysis::EvalContext& ctx,
                           const analysis::Params& params) {
  report::Table t{{"metric", "value"}, {}};
  for (const auto& [name, value] :
       analysis::AnalysisRegistry::global().at(verb).run(ctx, params)) {
    if (value.is_number()) {
      t.add_row({name, common::json::format_number(value.as_number())});
    }
  }
  return t;
}

int cmd_cell(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string verb = argv[1];
  const std::string circuit = argv[2];
  const bool info = verb == "info";
  if (!info && analysis::AnalysisRegistry::global().find(verb) == nullptr) {
    usage(("unknown command " + verb).c_str());
  }
  if (circuit.starts_with('-')) {
    usage(("expected a circuit before options, got " + circuit).c_str());
  }
  std::vector<std::string> flags;
  std::string csv_path;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") != 0) {
      flags.emplace_back(argv[i]);
    } else if (i + 1 < argc) {
      csv_path = argv[++i];
    } else {
      usage("missing value for --csv");
    }
  }
  const campaign::CampaignSpec spec =
      campaign::spec_from_args(verb, circuit, flags);
  // The verb owns this thread: --threads is the width of every parallel
  // loop it reaches.
  const common::ThreadBudget budget(spec.n_threads);
  analysis::ContextPool pool(spec.params, spec.cut_dffs);
  analysis::EvalContext ctx =
      pool.context(spec.netlists.front(), spec.conditions.front());
  emit(info ? info_table(ctx) : metric_table(verb, ctx, spec.params),
       csv_path);
  return 0;
}

// Derives the default result-store path from the spec path:
// "specs/grid.json" -> "specs/grid.results.jsonl".
std::string default_store_path(const std::string& spec_path) {
  std::string base = spec_path;
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
    base.erase(dot);
  }
  return base + ".results.jsonl";
}

int cmd_generate(int argc, char** argv) {
  if (argc < 3) {
    usage("generate expects: <spec> [--out PATH] [--format bench|v]");
  }
  const std::string spec = argv[2];
  std::string out_path;
  std::string format;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = value();
    } else if (arg == "--format") {
      format = value();
      if (format != "bench" && format != "v") {
        usage("--format expects bench|v");
      }
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  // Format priority: explicit --format, else the --out extension, else bench.
  if (format.empty()) {
    format = out_path.ends_with(".v") ? "v" : "bench";
  }

  const netlist::Netlist nl = analysis::load_netlist_spec(spec, false);
  const std::string text =
      format == "v" ? netlist::write_verilog(nl) : netlist::write_bench(nl);
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream f(out_path);
    if (!f) throw std::runtime_error("generate: cannot write " + out_path);
    f << text;
  }
  std::fprintf(stderr,
               "generate %s: %d inputs, %d outputs, %d gates, depth %d -> "
               "%s (%s)\n",
               nl.name().c_str(), nl.num_inputs(),
               static_cast<int>(nl.outputs().size()), nl.num_gates(),
               nl.depth(), out_path.empty() ? "stdout" : out_path.c_str(),
               format.c_str());
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 4) {
    usage("campaign expects: run|resume|summarize|query|serve SPEC.json");
  }
  const std::string action = argv[2];
  const std::string spec_path = argv[3];
  if (action != "run" && action != "resume" && action != "summarize" &&
      action != "query" && action != "serve") {
    usage(("unknown campaign action " + action).c_str());
  }

  std::string store_path = default_store_path(spec_path);
  std::string csv_path;
  std::string format = "md";
  std::string query_text;
  int threads_override = -1;
  int port = -1;
  int max_connections = 0;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--out") {
      store_path = value();
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--format") {
      format = value();
      const bool json_ok = action == "query" && format == "json";
      if (format != "md" && format != "csv" && !json_ok) {
        usage(action == "query" ? "--format expects md|csv|json"
                                : "--format expects md|csv");
      }
    } else if (arg == "--threads") {
      threads_override = std::atoi(value().c_str());
      if (threads_override < 0) usage("bad --threads");
    } else if (arg == "--query" && action == "query") {
      query_text = value();
    } else if (arg == "--query-file" && action == "query") {
      const std::string path = value();
      std::ifstream f(path);
      if (!f) throw std::runtime_error("campaign query: cannot open " + path);
      std::ostringstream ss;
      ss << f.rdbuf();
      query_text = ss.str();
    } else if (arg == "--port" && action == "serve") {
      port = std::atoi(value().c_str());
      if (port < 0 || port > 65535) usage("bad --port");
    } else if (arg == "--max-connections" && action == "serve") {
      max_connections = std::atoi(value().c_str());
      if (max_connections < 0) usage("bad --max-connections");
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }

  campaign::CampaignSpec spec = campaign::load_spec(spec_path);
  if (threads_override >= 0) spec.n_threads = threads_override;

  if (action == "query") {
    // "{}" — match everything, default columns — when no query was given.
    const query::Query q = query::parse_query(
        common::json::parse(query_text.empty() ? "{}" : query_text));
    const query::StoreView view(store_path);
    const query::QueryResult r = query::run_query(view, q, spec.n_threads);
    if (format == "json") {
      std::fputs(r.to_json().c_str(), stdout);
      std::fputs("\n", stdout);
    } else {
      const report::Table t = r.table();
      std::fputs((format == "csv" ? report::to_csv(t) : report::to_markdown(t))
                     .c_str(),
                 stdout);
    }
    if (!csv_path.empty()) {
      report::write_file(csv_path, report::to_csv(r.table()));
      std::printf("(csv written to %s)\n", csv_path.c_str());
    }
    std::fprintf(stderr,
                 "query: %zu matched, %zu of %zu rows parsed across %d "
                 "file%s\n",
                 r.stats.rows_matched, r.stats.rows_parsed,
                 r.stats.index_entries, r.stats.files,
                 r.stats.files == 1 ? "" : "s");
    return 0;
  }

  if (action == "serve") {
    const query::StoreView view(store_path);
    std::fprintf(stderr, "serve: %zu rows across %zu file%s of %s\n",
                 view.total_rows(), view.files().size(),
                 view.files().size() == 1 ? "" : "s", store_path.c_str());
    if (port >= 0) {
      query::ServeOptions opt;
      opt.port = port;
      opt.n_threads = spec.n_threads;
      opt.max_connections = max_connections;
      query::serve_tcp(view, opt, &std::cerr);
    } else {
      query::serve_session(view, std::cin, std::cout, spec.n_threads);
    }
    return 0;
  }

  if (action == "summarize") {
    campaign::SummaryStats stats;
    const report::Table t = campaign::summarize(spec, store_path, &stats);
    // CSV to stdout pipes straight into plotting scripts next to the
    // BENCH_*.json files; markdown stays the human default.
    std::fputs((format == "csv" ? report::to_csv(t) : report::to_markdown(t))
                   .c_str(),
               stdout);
    if (!csv_path.empty()) {
      report::write_file(csv_path, report::to_csv(t));
      std::printf("\n(csv written to %s)\n", csv_path.c_str());
    }
    if (stats.stale > 0) {
      std::fprintf(stderr,
                   "campaign %s: %d of %d store row%s stale (parameters "
                   "changed since they were written) — not summarized\n",
                   spec.name.c_str(), stats.stale, stats.stored,
                   stats.stored == 1 ? "" : "s");
    }
    return 0;
  }

  if (action == "resume") {
    // Sharded layouts have no file at store_path itself; probe every
    // possible shard plus the legacy base file.
    if (!campaign::ShardedStore::exists(store_path)) {
      throw std::runtime_error("campaign resume: no result store at " +
                               store_path + " (use `campaign run` first)");
    }
  }
  const campaign::RunStats stats =
      campaign::run_campaign(spec, store_path, &std::cerr);
  std::printf(
      "campaign %s: %d tasks (%d skipped, %d executed, %d stale) in %.1f ms "
      "-> %s\n",
      spec.name.c_str(), stats.total, stats.skipped, stats.executed,
      stats.stale, stats.elapsed_ms, store_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && (std::strcmp(argv[1], "--version") == 0 ||
                      std::strcmp(argv[1], "-V") == 0)) {
      std::printf("nbtisim %s\n", NBTISIM_VERSION);
      return 0;
    }
    if (argc >= 2 && std::strcmp(argv[1], "campaign") == 0) {
      return cmd_campaign(argc, argv);
    }
    if (argc >= 2 && std::strcmp(argv[1], "generate") == 0) {
      return cmd_generate(argc, argv);
    }
    return cmd_cell(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nbtisim: %s\n", e.what());
    return 1;
  }
}
