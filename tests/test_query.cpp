// Tests for the results-serving subsystem: the sidecar store index
// (src/campaign/index.*), the query engine and StoreView (src/query/query.*),
// and the line-protocol server (src/query/serve.*). The determinism-labeled
// cases prove the three contracts the subsystem ships with: query output is
// byte-identical across shard layouts, byte-identical across thread counts,
// and exactly equal to the naive full-rescan reference.

#include "query/query.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/index.h"
#include "campaign/store.h"
#include "common/quantile.h"
#include "common/rng.h"
#include "query/serve.h"
#include "support/reference.h"
#include "support/temp_store.h"

namespace nbtisim::query {
namespace {

using campaign::IndexEntry;
using campaign::ResultStore;
using campaign::ShardedStore;
using common::json::Value;

using testsupport::remove_store;
using testsupport::temp_path;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(f)) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

// A deterministic synthetic campaign row: hashes cover every hex prefix so
// all 16 shards participate, coordinates form a small grid, and metric
// values are reproducible functions of the index. Every third row carries a
// structured payload next to its scalars, and a few metric values are
// non-finite (or -0) to exercise the aggregation skip rule and the sidecar's
// number round trip. Rows 21-24 of every 40 carry netlist and ras names
// that a group key joined without quotes or escapes would confuse:
// "p,q" + "r" against "p" + "q,r", and "p\",\"q" + "r" against
// "p" + "q\",\"r".
Value synthetic_row(int i) {
  static const char* kNetlists[] = {"c432", "c880", "dag:8x40@3"};
  static const char* kAnalyses[] = {"aging", "st", "failure"};
  static const char* kConfusable[][2] = {
      {"p,q", "r"}, {"p", "q,r"}, {"p\",\"q", "r"}, {"p", "q\",\"r"}};
  static const double kSpread[] = {std::numeric_limits<double>::quiet_NaN(),
                                   -std::numeric_limits<double>::infinity(),
                                   -0.0, 2.5};
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                0x1000000000000000ull * (i % 16) +
                    static_cast<unsigned long long>(i));
  const int confusable = i % 40 - 21;
  const bool odd_name = confusable >= 0 && confusable < 4;
  const char* netlist =
      odd_name ? kConfusable[confusable][0] : kNetlists[i % 3];
  Value row;
  row.set("hash", std::string(hash));
  row.set("campaign", "synthetic");
  row.set("netlist", netlist);
  row.set("netlist_spec", netlist);
  row.set("ras", odd_name ? kConfusable[confusable][1]
                          : (i % 2 == 0 ? "1:9" : "5:5"));
  row.set("t_active", 400.0);
  row.set("t_standby", i % 4 < 2 ? 330.0 : 400.0);
  row.set("years", 10.0);
  row.set("analysis", kAnalyses[i % 3]);
  Value metrics;
  metrics.set("worst_pct", 4.0 + 0.125 * (i % 37));
  metrics.set("fresh_ns", 3.0 + 0.0625 * (i % 17));
  if (i % 11 == 0) {
    metrics.set("odd_metric",
                i % 22 == 0 ? std::numeric_limits<double>::infinity()
                            : 1.5 * i);
  }
  if (i % 5 == 2) metrics.set("spread", kSpread[(i / 5) % 4]);
  if (i % 3 == 0) {
    common::json::Array curve;
    for (int k = 0; k < 3; ++k) {
      Value pt;
      pt.set("years", static_cast<double>(k + 1));
      pt.set("p", 0.01 * ((i + k) % 90));
      curve.push_back(pt);
    }
    metrics.set("curve", Value(std::move(curve)));
  }
  row.set("metrics", std::move(metrics));
  return row;
}

/// Writes \p n synthetic rows through a ShardedStore with \p shards shards
/// (in batches, like the engine) and returns the store path.
std::string build_store(const std::string& name, int n, int shards) {
  const std::string path = temp_path(name);
  remove_store(path);
  ShardedStore store(path, shards);
  std::vector<Value> batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(synthetic_row(i));
    if (batch.size() == 32) {
      store.append(batch);
      batch.clear();
    }
  }
  store.append(batch);
  return path;
}

// The fixed query set the differential and bit-identity tests all run.
const char* kQueries[] = {
    R"({})",
    R"({"where":{"netlist":"c432"}})",
    R"({"where":{"analysis":["aging","st"],"t_standby":400}})",
    R"({"where":{"worst_pct":{"min":5.0,"max":7.5}}})",
    R"({"where":{"ras":"5:5","worst_pct":{"max":6}},"select":["netlist","ras","analysis","worst_pct"]})",
    R"({"select":["hash","netlist","curve"],"where":{"netlist":"dag:8x40@3"},"limit":7})",
    R"({"where":{"netlist":"c432"},"select":["ras","fresh_ns","curve","absent"]})",
    R"({"agg":{"op":"count","by":["netlist","analysis"]}})",
    R"({"agg":{"op":"mean","by":["netlist"],"metrics":["worst_pct","fresh_ns"]}})",
    R"({"where":{"t_standby":{"min":350}},"agg":{"op":"max","by":["ras"]}})",
    R"({"agg":{"op":"quantile","q":0.25,"by":["analysis"],"metrics":["worst_pct"]}})",
    R"({"agg":{"op":"sum"}})",
    R"({"where":{"odd_metric":{"min":0}},"agg":{"op":"min","by":["netlist"],"metrics":["odd_metric"]}})",
    R"({"where":{"hash":"0000000000000000"}})",
    R"({"where":{"netlist":"nonexistent"},"agg":{"op":"count"}})",
    // Metric predicates, scalar columns and aggregates answered from the
    // index entries' values, NaN, -Infinity and -0 among them.
    R"({"where":{"worst_pct":4.5}})",
    R"({"where":{"fresh_ns":[3,3.125,"c432"]},"select":["hash","fresh_ns","spread"]})",
    R"({"where":{"odd_metric":{"min":100}},"select":["hash","odd_metric"]})",
    R"({"where":{"spread":{"max":0}}})",
    R"({"where":{"t_standby":330},"select":["worst_pct","curve","absent","spread"]})",
    R"({"agg":{"op":"mean","by":["analysis"],"metrics":["odd_metric","spread"]}})",
    R"({"agg":{"op":"count","by":["netlist","ras"]}})",
    R"({"agg":{"op":"sum","by":["ras","netlist"],"metrics":["worst_pct"]}})",
};

// --------------------------------------------------------------------------
// The sidecar index.

TEST(IndexTest, IndexPathInsertsBeforeExtension) {
  EXPECT_EQ(campaign::index_path("store.jsonl"), "store.index.jsonl");
  EXPECT_EQ(campaign::index_path("a/b.c/store.3.jsonl"),
            "a/b.c/store.3.index.jsonl");
  EXPECT_EQ(campaign::index_path("noext"), "noext.index");
}

TEST(IndexTest, AppendBuildsEntriesIncrementally) {
  const std::string path = temp_path("idx_inc.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0), synthetic_row(1)};
    store.append(rows);
    std::vector<Value> more{synthetic_row(2)};
    store.append(more);
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_FALSE(idx.rebuilt);
  EXPECT_FALSE(idx.caught_up);
  ASSERT_EQ(idx.entries.size(), 3u);
  EXPECT_EQ(idx.entries[0].offset, 0u);
  EXPECT_EQ(idx.entries[0].netlist, "c432");
  EXPECT_EQ(idx.entries[0].analysis, "aging");
  EXPECT_DOUBLE_EQ(idx.entries[1].t_standby, 330.0);
  // Scalar metrics only, with their values: row 0 also carries the
  // structured "curve", which must not be listed (a query reads it from the
  // row).
  using Metrics = std::vector<std::pair<std::string, double>>;
  EXPECT_EQ(idx.entries[0].metrics,
            (Metrics{{"worst_pct", 4.0},
                     {"fresh_ns", 3.0},
                     {"odd_metric", std::numeric_limits<double>::infinity()}}));
  EXPECT_EQ(idx.entries[1].metrics,
            (Metrics{{"worst_pct", 4.125}, {"fresh_ns", 3.0625}}));
  // NaN reads back as NaN (which no == holds for).
  ASSERT_EQ(idx.entries[2].metrics.size(), 3u);
  EXPECT_EQ(idx.entries[2].metrics[2].first, "spread");
  EXPECT_TRUE(std::isnan(idx.entries[2].metrics[2].second));
  // Extents tile the file: entry k+1 starts right after entry k's newline.
  EXPECT_EQ(idx.entries[1].offset, idx.entries[0].offset +
                                       idx.entries[0].length + 1);
}

TEST(IndexTest, IncrementalSidecarMatchesRebuiltSidecar) {
  const std::string path = temp_path("idx_equal.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows;
    for (int i = 0; i < 9; ++i) rows.push_back(synthetic_row(i));
    store.append(rows);
  }
  const std::string incremental = read_file(campaign::index_path(path));
  std::remove(campaign::index_path(path).c_str());
  // A missing sidecar is an empty-but-valid one: the loader catches up from
  // byte 0 and persists, reproducing the incremental sidecar byte for byte.
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_TRUE(idx.caught_up);
  EXPECT_EQ(read_file(campaign::index_path(path)), incremental);
}

TEST(IndexTest, MissingSidecarRegenerates) {
  const std::string path = temp_path("idx_regen.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0), synthetic_row(5)};
    store.append(rows);
  }
  std::remove(campaign::index_path(path).c_str());
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_TRUE(idx.caught_up);
  ASSERT_EQ(idx.entries.size(), 2u);
  EXPECT_EQ(idx.entries[1].ras, "5:5");
}

TEST(IndexTest, StaleSidecarRebuilds) {
  const std::string path = temp_path("idx_stale.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0), synthetic_row(1)};
    store.append(rows);
  }
  // Clobber the sidecar with entries whose extents cannot match the file.
  {
    std::ofstream side(campaign::index_path(path), std::ios::trunc);
    side << R"({"h":"bogus","o":4,"l":999999})" << "\n";
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_TRUE(idx.rebuilt);
  ASSERT_EQ(idx.entries.size(), 2u);
  EXPECT_EQ(idx.entries[0].hash, synthetic_row(0).at("hash").as_string());
}

// Sidecar extents are integers in [0, 2^53]. A negative, NaN, fractional or
// huge "o"/"l" marks the sidecar stale and the loader rebuilds it: casting
// such a value was undefined, and a fractional one used to be truncated and
// accepted as valid. Queries still answer like the full rescan.
TEST(IndexTest, BadSidecarExtentsRebuild) {
  const std::string path = build_store("idx_extent.jsonl", 40, 1);
  const std::string good = read_file(campaign::index_path(path));
  const campaign::StoreIndex clean = campaign::load_index(path);
  ASSERT_FALSE(clean.rebuilt);
  const std::string length = std::to_string(clean.entries[0].length);
  const std::string extent = "\"o\":0,\"l\":" + length + ",";
  ASSERT_NE(good.find(extent), std::string::npos);
  for (const std::string& bad : std::vector<std::string>{
           "\"o\":-1e300,\"l\":" + length + ",", "\"o\":0,\"l\":NaN,",
           "\"o\":0.75,\"l\":" + length + ".9,",
           "\"o\":1e300,\"l\":1,"}) {
    SCOPED_TRACE(bad);
    std::string side = good;
    side.replace(side.find(extent), extent.size(), bad);
    {
      std::ofstream f(campaign::index_path(path), std::ios::trunc);
      f << side;
    }
    const campaign::StoreIndex idx = campaign::load_index(path);
    EXPECT_TRUE(idx.rebuilt);
    ASSERT_EQ(idx.entries.size(), clean.entries.size());
    for (std::size_t i = 0; i < idx.entries.size(); ++i) {
      EXPECT_EQ(campaign::dump_entry(idx.entries[i]),
                campaign::dump_entry(clean.entries[i]));
    }
    EXPECT_EQ(read_file(campaign::index_path(path)), good);
    // A view opened on the damaged sidecar answers like the rescan.
    {
      std::ofstream f(campaign::index_path(path), std::ios::trunc);
      f << side;
    }
    const StoreView view(path);
    for (const char* text : kQueries) {
      const Value qdoc = common::json::parse(text);
      EXPECT_EQ(report::to_csv(run_query(view, parse_query(qdoc), 1).table()),
                report::to_csv(testsupport::reference_query(path, qdoc)))
          << text;
    }
  }
  remove_store(path);
}

// A sidecar entry one byte short ends on its row's last byte, not on the
// newline: the byte after it is then that newline, which passes for a
// whitespace gap (or, after the last entry, for an empty line). The entry
// must make the sidecar stale, and a query must answer as on the clean
// store instead of parsing a row cut short.
void expect_short_entry_rebuilds(const std::string& name, int victim) {
  const std::string path = build_store(name, 5, 1);
  const std::string good = read_file(campaign::index_path(path));
  const campaign::StoreIndex clean = campaign::load_index(path);
  ASSERT_FALSE(clean.rebuilt);
  ASSERT_EQ(clean.entries.size(), 5u);
  std::vector<std::string> answers;
  {
    const StoreView view(path);
    for (const char* text : kQueries) {
      answers.push_back(report::to_csv(
          run_query(view, parse_query(common::json::parse(text)), 1).table()));
    }
  }
  std::string side;
  for (std::size_t i = 0; i < clean.entries.size(); ++i) {
    IndexEntry e = clean.entries[i];
    if (static_cast<int>(i) == victim) --e.length;
    side += campaign::dump_entry(e) + "\n";
  }
  auto damage = [&] {
    std::ofstream f(campaign::index_path(path), std::ios::trunc);
    f << side;
  };

  damage();
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_TRUE(idx.rebuilt);
  ASSERT_EQ(idx.entries.size(), clean.entries.size());
  for (std::size_t i = 0; i < idx.entries.size(); ++i) {
    EXPECT_EQ(campaign::dump_entry(idx.entries[i]),
              campaign::dump_entry(clean.entries[i]));
  }
  EXPECT_EQ(read_file(campaign::index_path(path)), good);

  damage();
  const StoreView view(path);
  for (std::size_t q = 0; q < std::size(kQueries); ++q) {
    EXPECT_EQ(report::to_csv(run_query(
                  view, parse_query(common::json::parse(kQueries[q])), 1)
                                 .table()),
              answers[q])
        << kQueries[q];
  }
  remove_store(path);
}

TEST(IndexTest, FirstEntryOneByteShortRebuilds) {
  expect_short_entry_rebuilds("idx_short_first.jsonl", 0);
}

TEST(IndexTest, MiddleEntryOneByteShortRebuilds) {
  expect_short_entry_rebuilds("idx_short_middle.jsonl", 2);
}

TEST(IndexTest, LastEntryOneByteShortRebuilds) {
  expect_short_entry_rebuilds("idx_short_last.jsonl", 4);
}

TEST(IndexTest, GapBetweenEntriesTriggersRebuild) {
  const std::string path = temp_path("idx_gap.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows;
    for (int i = 0; i < 3; ++i) rows.push_back(synthetic_row(i));
    store.append(rows);
  }
  // Drop the middle sidecar line: its row now hides in the "gap", which the
  // whitespace check must catch (a naive extent check would not).
  const campaign::StoreIndex before = campaign::load_index(path);
  ASSERT_EQ(before.entries.size(), 3u);
  {
    std::ofstream side(campaign::index_path(path), std::ios::trunc);
    side << campaign::dump_entry(before.entries[0]) << "\n"
         << campaign::dump_entry(before.entries[2]) << "\n";
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_TRUE(idx.rebuilt);
  ASSERT_EQ(idx.entries.size(), 3u);
}

TEST(IndexTest, CatchUpIndexesRowsAppendedWithoutSidecar) {
  const std::string path = temp_path("idx_catchup.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0)};
    store.append(rows);
  }
  // Simulate an older binary appending a row without a sidecar entry.
  {
    std::ofstream f(path, std::ios::app);
    f << common::json::dump(synthetic_row(1)) << "\n";
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_FALSE(idx.rebuilt);
  EXPECT_TRUE(idx.caught_up);
  ASSERT_EQ(idx.entries.size(), 2u);
  // The catch-up was persisted: a second load is clean.
  const campaign::StoreIndex again = campaign::load_index(path);
  EXPECT_FALSE(again.rebuilt);
  EXPECT_FALSE(again.caught_up);
  ASSERT_EQ(again.entries.size(), 2u);
}

TEST(IndexTest, TruncatedStoreTailStaysUnindexed) {
  const std::string path = temp_path("idx_tail.jsonl");
  remove_store(path);
  {
    std::ofstream f(path);
    f << common::json::dump(synthetic_row(0)) << "\n"
      << R"({"hash":"deadbeef","netli)";  // killed mid-append
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  ASSERT_EQ(idx.entries.size(), 1u);
  EXPECT_EQ(idx.entries[0].hash, synthetic_row(0).at("hash").as_string());
}

// The sidecar reader takes each line straight from the parser's tokens; it
// must accept and reject exactly the lines the tree-based reader does, over
// seeded sidecars, hand-made lines and their truncations and byte flips.
TEST(IndexTest, SidecarReaderMatchesTreeReader) {
  std::vector<std::string> lines;
  for (int n : {41, 64}) {
    const std::string path = build_store("idx_reader.jsonl", n, 1);
    std::istringstream side(read_file(campaign::index_path(path)));
    for (std::string line; std::getline(side, line);) lines.push_back(line);
    remove_store(path);
  }
  for (const char* line : {
           R"({"h":"a","o":0,"l":5})",
           R"({"l":5,"o":0,"h":"a","zz":{"m":[1,{"h":2}]},"m":{}})",
           R"({"h":"a","o":0,"l":5,"m":["worst_pct"]})",
           R"({"h":"a","o":0,"l":5,"m":{"x":NaN,"y":-Infinity,"z":-0}})",
           R"({"h":"a","o":0,"l":5,"m":{"x":"1"}})",
           R"({"h":"a","o":0,"l":5,"m":{"x":[1]}})",
           R"({"h":"a","o":0,"l":5,"m":{"x":1,"x":2}})",
           R"({"h":"a","o":0,"l":5,"m":{"x":null}})",
           R"({"h":"a","o":0,"l":5,"ta":"400"})",
           R"({"h":"a","o":0,"l":5,"n":7})",
           R"({"h":"a","o":0,"l":5,"a":true})",
           R"({"h":"a","o":0,"l":5,"r":null})",
           R"({"h":1,"o":0,"l":5})",
           R"({"h":"a","o":0})",
           R"({"h":"a","o":0,"l":5,"h":"b"})",
           R"({"\u0068":"a","o":0,"l":5,"n":"c\"4\u00e9"})",
           R"({"h":"a","o":9007199254740992,"l":1})",
           R"({"h":"a","o":9007199254740993,"l":1})",
           R"({"h":"a","o":2.5,"l":1})",
           R"({"h":"a","o":-0,"l":1e3})",
           R"({"h":"a","o":[0],"l":5})",
           R"({"h":"a","o":{},"l":5})",
           R"(["h","a"])", R"("h")", "12", "null", ""}) {
    lines.emplace_back(line);
  }
  const auto outcome = [](const auto& read) -> std::string {
    try {
      return campaign::dump_entry(read());
    } catch (const std::runtime_error&) {
      return "rejected";
    }
  };
  std::mt19937_64 rng(common::stream_seed(2026, 29));
  std::size_t accepted = 0;
  for (const std::string& line : lines) {
    for (int k = 0; k < 12; ++k) {
      std::string text = line;
      if (k > 0 && !text.empty()) {  // damage every later read
        if (k % 2 == 1) {
          text.resize(rng() % text.size());
        } else {
          text[rng() % text.size()] ^= static_cast<char>(1 + rng() % 255);
        }
      }
      SCOPED_TRACE(text);
      const std::string got =
          outcome([&] { return campaign::parse_entry(text); });
      EXPECT_EQ(got, outcome([&] {
                  return testsupport::reference_parse_entry(text);
                }));
      accepted += got != "rejected";
    }
  }
  EXPECT_GT(accepted, lines.size());  // both outcomes are exercised
}

// A sidecar in the earlier schema, whose "m" lists names only, fails the
// current one. Several such lines are damage, so the sidecar is rebuilt; a
// single one is an interrupted append, so it is cut and caught up. Either
// way the sidecar is rewritten byte for byte as a fresh one.
TEST(IndexTest, NamesOnlySidecarIsRewrittenInTheCurrentSchema) {
  for (int n : {1, 6}) {
    SCOPED_TRACE(n);
    const std::string path = build_store("idx_names.jsonl", n, 1);
    const std::string fresh = read_file(campaign::index_path(path));
    const std::vector<IndexEntry> entries = campaign::load_index(path).entries;
    std::string names_only;
    for (const IndexEntry& e : entries) {
      Value line = common::json::parse(campaign::dump_entry(e));
      common::json::Array names;
      for (const auto& [name, value] : e.metrics) names.emplace_back(name);
      line.set("m", Value(std::move(names)));
      names_only += common::json::dump(line) + "\n";
    }
    ASSERT_NE(names_only.find("\"m\":[\"worst_pct\""), std::string::npos);
    write_bytes(campaign::index_path(path), names_only);
    const campaign::StoreIndex idx = campaign::load_index(path);
    EXPECT_EQ(idx.rebuilt, n > 1);
    EXPECT_EQ(idx.caught_up, n == 1);
    ASSERT_EQ(idx.entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(campaign::dump_entry(idx.entries[i]),
                campaign::dump_entry(entries[i]));
    }
    EXPECT_EQ(read_file(campaign::index_path(path)), fresh);
    remove_store(path);
  }
}

// --------------------------------------------------------------------------
// ResultStore truncated-tail warning (regression: used to be silent).

TEST(ResultStoreTest, WarnsOnTruncatedTailWithPathAndOffset) {
  const std::string path = temp_path("warn_tail.jsonl");
  remove_store(path);
  const std::string good = common::json::dump(synthetic_row(0)) + "\n";
  {
    std::ofstream f(path);
    f << good << R"({"hash":"deadbeef","netli)";
  }
  std::ostringstream warnings;
  ResultStore store(path, &warnings);
  EXPECT_EQ(store.size(), 1u);
  const std::string msg = warnings.str();
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("byte " + std::to_string(good.size())),
            std::string::npos)
      << msg;
  // A clean store stays quiet.
  std::ostringstream quiet;
  ResultStore reloaded(path, &quiet);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(quiet.str().empty()) << quiet.str();
}

// --------------------------------------------------------------------------
// Crash sweeps: a kill at any byte of an append must leave a store that
// loads the rows whose newline is on disk and resumes to the uninterrupted
// bytes. `ctest -L recovery` runs them alone.

/// Every store file and sidecar of the store at \p path on disk, by path.
std::map<std::string, std::string> store_bytes(const std::string& path) {
  std::map<std::string, std::string> out;
  for (const std::string& file : ShardedStore::files(path)) {
    for (const std::string& p : {file, campaign::index_path(file)}) {
      if (std::ifstream(p)) out[p] = read_file(p);
    }
  }
  return out;
}

/// Writes rows [0, n_first) and then rows [n_first, n_rows) as two appends
/// to a store with \p shards shards, and cuts the second append of the
/// first shard file at every byte. Each cut leaves that file's sidecar as
/// it was before the append (the writer appends it after the rows) or as
/// it was after it (the rows' tail lost, the sidecar kept).
void sweep_last_append(int shards, int n_first, int n_rows) {
  const std::string path =
      temp_path("sweep_" + std::to_string(shards) + ".jsonl");
  remove_store(path);
  std::vector<Value> rows;
  for (int i = 0; i < n_rows; ++i) rows.push_back(synthetic_row(i));
  const std::string victim = ShardedStore::files(path)[shards == 1 ? 0 : 1];
  ShardedStore(path, shards).append(std::span(rows).first(n_first));
  const std::string side_before = read_file(campaign::index_path(victim));
  const std::size_t victim_before = read_file(victim).size();
  ShardedStore(path, shards).append(std::span(rows).subspan(n_first));
  const std::map<std::string, std::string> full = store_bytes(path);
  const std::string victim_full = read_file(victim);
  const std::string side_full = read_file(campaign::index_path(victim));
  const std::vector<IndexEntry> entries = campaign::load_index(victim).entries;
  ASSERT_LT(victim_before + 2, victim_full.size());

  for (const std::string* side : {&side_before, &side_full}) {
    for (std::size_t cut = victim_before; cut < victim_full.size(); ++cut) {
      SCOPED_TRACE("cut at byte " + std::to_string(cut) + ", sidecar " +
                   (side == &side_before ? "before" : "after") +
                   " the append");
      write_bytes(victim, victim_full.substr(0, cut));
      write_bytes(campaign::index_path(victim), *side);

      // The index lists exactly the rows whose newline is on disk.
      const campaign::StoreIndex idx = campaign::load_index(victim);
      std::size_t whole = 0;
      while (whole < entries.size() &&
             entries[whole].offset + entries[whole].length < cut) {
        ++whole;
      }
      ASSERT_EQ(idx.entries.size(), whole);
      for (std::size_t i = 0; i < whole; ++i) {
        ASSERT_EQ(campaign::dump_entry(idx.entries[i]),
                  campaign::dump_entry(entries[i]));
      }

      // Reopen, append what is missing, and every file is back.
      std::ostringstream warnings;
      ShardedStore store(path, shards, &warnings);
      std::vector<Value> missing;
      for (const Value& row : rows) {
        if (!store.contains(row.at("hash").as_string())) {
          missing.push_back(row);
        }
      }
      store.append(missing);
      ASSERT_EQ(store_bytes(path), full);
    }
  }
  remove_store(path);
}

TEST(StoreRecoveryTest, SingleFileCrashAtEveryByteOfTheLastAppend) {
  sweep_last_append(1, 6, 10);
}

// Rows 32..63 put two rows into every shard's last append; only the first
// shard file is cut, and the other 15 must stay as they are.
TEST(StoreRecoveryTest, ShardedCrashAtEveryByteOfTheLastAppend) {
  sweep_last_append(16, 32, 64);
}

TEST(StoreRecoveryTest, SidecarCrashAtEveryByteLoadsAndRestoresIt) {
  const std::string path = build_store("sweep_sidecar.jsonl", 12, 1);
  const std::string side_path = campaign::index_path(path);
  const std::string full = read_file(side_path);
  const std::vector<IndexEntry> entries = campaign::load_index(path).entries;
  ASSERT_EQ(entries.size(), 12u);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    SCOPED_TRACE("sidecar cut at byte " + std::to_string(cut));
    write_bytes(side_path, full.substr(0, cut));
    const campaign::StoreIndex idx = campaign::load_index(path);
    EXPECT_FALSE(idx.rebuilt);
    ASSERT_EQ(idx.entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      ASSERT_EQ(campaign::dump_entry(idx.entries[i]),
                campaign::dump_entry(entries[i]));
    }
    ASSERT_EQ(read_file(side_path), full);
  }
  remove_store(path);
}

// --------------------------------------------------------------------------
// Query parsing.

TEST(QueryParseTest, RejectsMalformedQueries) {
  const auto parse = [](const char* text) {
    return parse_query(common::json::parse(text));
  };
  EXPECT_THROW(parse(R"([1,2])"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"frobnicate":1})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"where":{"x":{"between":[1,2]}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"where":{"x":{}}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"where":{"x":[]}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"where":{"x":true}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"agg":{"op":"median"}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"agg":{"op":"quantile","q":1.5}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"agg":{"op":"count","by":["worst_pct"]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"limit":-1})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"limit":2.5})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"select":[]})"), std::invalid_argument);
  // No row lies in a range with a NaN bound; it used to match every row.
  EXPECT_THROW(
      parse(R"({"where":{"analysis":"aging","worst_pct":{"min":NaN}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse(R"({"where":{"t_standby":{"max":NaN}},"agg":{"op":"count"}})"),
      std::invalid_argument);
  try {
    parse(R"({"where":{"worst_pct":{"min":1,"max":NaN}}})");
    ADD_FAILURE() << "a NaN bound was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"worst_pct\""), std::string::npos)
        << e.what();
  }
  // A limit past 2^53 (or not a number at all) is rejected before the cast.
  EXPECT_THROW(parse(R"({"limit":1e300})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"limit":Infinity})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"limit":NaN})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"limit":9007199254740994})"), std::invalid_argument);
}

TEST(QueryParseTest, AcceptsTheDocumentedForms) {
  const Query q = parse_query(common::json::parse(
      R"({"where":{"netlist":["c432","c880"],"worst_pct":{"min":1},
          "t_standby":330},
          "select":["netlist","worst_pct"],
          "agg":{"op":"quantile","q":0.9,"by":["netlist"]},
          "limit":10})"));
  EXPECT_EQ(q.where.size(), 3u);
  EXPECT_EQ(q.where[0].second.any_of.size(), 2u);
  EXPECT_TRUE(q.where[1].second.has_range);
  EXPECT_TRUE(q.has_agg);
  EXPECT_EQ(q.agg.op, "quantile");
  EXPECT_EQ(q.limit, 10);
  // ±Infinity is an open bound, and 2^53 the largest limit.
  const Query open = parse_query(common::json::parse(
      R"({"where":{"worst_pct":{"min":-Infinity,"max":Infinity}},
          "limit":9007199254740992})"));
  EXPECT_TRUE(open.where[0].second.has_range);
  EXPECT_EQ(open.limit, 9007199254740992LL);
}

// --------------------------------------------------------------------------
// Differential: indexed query vs naive full rescan, exact table equality.

TEST(QueryDifferentialTest, MatchesNaiveRescanOnShardedStore) {
  const std::string path = build_store("qdiff16.jsonl", 211, 16);
  const StoreView view(path);
  for (const char* text : kQueries) {
    const common::json::Value qdoc = common::json::parse(text);
    const QueryResult r = run_query(view, parse_query(qdoc), 1);
    const report::Table expect = testsupport::reference_query(path, qdoc);
    EXPECT_EQ(report::to_csv(r.table()), report::to_csv(expect)) << text;
  }
  remove_store(path);
}

TEST(QueryDifferentialTest, MatchesNaiveRescanOnLegacySingleFile) {
  const std::string path = build_store("qdiff1.jsonl", 97, 1);
  const StoreView view(path);
  for (const char* text : kQueries) {
    const common::json::Value qdoc = common::json::parse(text);
    const QueryResult r = run_query(view, parse_query(qdoc), 2);
    const report::Table expect = testsupport::reference_query(path, qdoc);
    EXPECT_EQ(report::to_csv(r.table()), report::to_csv(expect)) << text;
  }
  remove_store(path);
}

// A projected read (what run_query parses a matched row with) is the full
// parse filtered to the kept members, for seeded keep-sets over the rows of
// seeded stores. A truncated or byte-flipped row throws parse()'s exact
// message, offset included, even where the damage sits in a dropped member.
TEST(QueryDifferentialTest, ProjectedRowsEqualFilteredFullParse) {
  std::vector<std::string> lines;
  for (int n : {53, 97}) {
    const std::string path = build_store("qproj.jsonl", n, 1);
    std::istringstream rows(read_file(path));
    for (std::string line; std::getline(rows, line);) lines.push_back(line);
    remove_store(path);
  }
  // Escaped keys that collide once decoded, in a kept and a dropped member.
  lines.push_back(R"({"hash":"x","metrics":{"a\u0062":1,"ab":2}})");
  lines.push_back(R"({"hash":"x","skip":{"k":1,"\u006b":2},"metrics":{}})");
  lines.push_back(R"({"h\u0061sh":"x","metrics":{"fresh_ns":1.5}})");

  const std::vector<std::string> names = {"worst_pct", "fresh_ns", "curve",
                                          "odd_metric", "ab", "absent"};
  std::mt19937_64 rng(common::stream_seed(2026, 20));
  const auto outcome = [](const auto& read) -> std::string {
    try {
      return common::json::dump(read());
    } catch (const std::runtime_error& e) {
      return std::string("error: ") + e.what();
    }
  };
  for (const std::string& line : lines) {
    for (int k = 0; k < 16; ++k) {
      common::json::Projection keep;
      keep.member = rng() % 8 == 0 ? "netlist" : "metrics";
      keep.all = rng() % 4 == 0;
      for (const std::string& name : names) {
        if (rng() % 2) keep.names.push_back(name);
      }
      std::string text = line;
      if (k % 2 == 1) {  // damage every other read
        if (rng() % 2) {
          text.resize(rng() % text.size());
        } else {
          text[rng() % text.size()] ^= static_cast<char>(1 + rng() % 255);
        }
      }
      SCOPED_TRACE(text);
      EXPECT_EQ(outcome([&] { return common::json::parse(text, keep); }),
                outcome([&] {
                  return testsupport::reference_projection(
                      common::json::parse(text), keep);
                }));
    }
  }
}

// --------------------------------------------------------------------------
// Bit-identity across shard layouts and thread counts.

TEST(QueryTest, BitIdenticalAcrossShardLayouts) {
  const int kRows = 173;
  const std::string p1 = build_store("qlay1.jsonl", kRows, 1);
  const std::string p4 = build_store("qlay4.jsonl", kRows, 4);
  const std::string p16 = build_store("qlay16.jsonl", kRows, 16);
  const StoreView v1(p1), v4(p4), v16(p16);
  ASSERT_EQ(v1.total_rows(), static_cast<std::size_t>(kRows));
  ASSERT_EQ(v16.total_rows(), static_cast<std::size_t>(kRows));
  for (const char* text : kQueries) {
    const Query q = parse_query(common::json::parse(text));
    const QueryResult r1 = run_query(v1, q, 1);
    const QueryResult r4 = run_query(v4, q, 2);
    const QueryResult r16 = run_query(v16, q, 4);
    EXPECT_EQ(r1.to_json(), r4.to_json()) << text;
    EXPECT_EQ(r1.to_json(), r16.to_json()) << text;
    EXPECT_EQ(report::to_markdown(r1.table()),
              report::to_markdown(r16.table()))
        << text;
    EXPECT_EQ(r1.stats.rows_matched, r16.stats.rows_matched) << text;
  }
  remove_store(p1);
  remove_store(p4);
  remove_store(p16);
}

TEST(QueryTest, BitIdenticalAcrossThreadCounts) {
  const std::string path = build_store("qthreads.jsonl", 149, 8);
  const StoreView view(path);
  for (const char* text : kQueries) {
    const Query q = parse_query(common::json::parse(text));
    const std::string baseline = run_query(view, q, 1).to_json();
    for (int threads : {2, 4, 8}) {
      EXPECT_EQ(run_query(view, q, threads).to_json(), baseline)
          << text << " threads=" << threads;
    }
    // A negative count is rejected, not read as "use the hardware".
    EXPECT_THROW(run_query(view, q, -1), std::invalid_argument) << text;
  }
  remove_store(path);
}

// --------------------------------------------------------------------------
// Query semantics spot checks (the differential suite proves equivalence;
// these pin down absolute behaviour).

TEST(QueryTest, CountAggregationNeverParsesRows) {
  const std::string path = build_store("qcount.jsonl", 101, 4);
  const StoreView view(path);
  const QueryResult r = run_query(
      view,
      parse_query(common::json::parse(
          R"({"where":{"netlist":"c432"},"agg":{"op":"count","by":["analysis"]}})")),
      2);
  EXPECT_EQ(r.stats.rows_parsed, 0u);
  EXPECT_GT(r.stats.rows_matched, 0u);
  remove_store(path);
}

TEST(QueryTest, MetricPredicateIsAnsweredFromTheIndex) {
  const std::string path = build_store("qprune.jsonl", 110, 4);
  const StoreView view(path);
  // "odd_metric" exists on every 11th row only, and the entries hold its
  // values: the predicate, like the scalar columns, reads no row.
  const QueryResult r = run_query(
      view,
      parse_query(common::json::parse(
          R"({"where":{"odd_metric":{"min":0}},"select":["hash","odd_metric"]})")),
      1);
  EXPECT_EQ(r.stats.rows_parsed, 0u);
  // Rows 0, 11, ..., 99: Infinity satisfies the range (non-finite is
  // skipped only by reducers).
  EXPECT_EQ(r.stats.rows_matched, 10u);
  remove_store(path);
}

// A row is read only for an output column that its entry does not list as
// a scalar; every predicate and aggregate is answered by the entries.
TEST(QueryTest, ScalarQueriesReadNoRow) {
  const std::string path = build_store("qscalar.jsonl", 120, 4);
  const StoreView view(path);
  const auto run = [&](const char* text) {
    SCOPED_TRACE(text);
    const Value qdoc = common::json::parse(text);
    const QueryResult r = run_query(view, parse_query(qdoc), 2);
    EXPECT_EQ(report::to_csv(r.table()),
              report::to_csv(testsupport::reference_query(path, qdoc)));
    EXPECT_GT(r.stats.rows_matched, 0u);
    return r.stats;
  };
  EXPECT_EQ(
      run(R"({"where":{"worst_pct":{"min":5,"max":7}},"select":["netlist","worst_pct","fresh_ns"]})")
          .rows_parsed,
      0u);
  EXPECT_EQ(
      run(R"({"where":{"analysis":["aging","st"]},"agg":{"op":"mean","by":["netlist"],"metrics":["worst_pct","odd_metric"]}})")
          .rows_parsed,
      0u);
  // The default select, over matches that all list the same scalars.
  EXPECT_EQ(
      run(R"({"where":{"hash":["1000000000000001","3000000000000003","4000000000000004"]}})")
          .rows_parsed,
      0u);
  // A payload select reads each match, here every "aging" row's "curve".
  const QueryStats payload = run(
      R"({"where":{"analysis":"aging"},"select":["hash","curve","worst_pct"]})");
  EXPECT_EQ(payload.rows_parsed, payload.rows_matched);
  // A default select reads the matches that lack one of its metrics as a
  // scalar, since such a row may hold it as a payload: rows 1 and 4 lack
  // row 0's "odd_metric".
  const QueryStats mixed = run(
      R"({"where":{"hash":["0000000000000000","1000000000000001","4000000000000004"]}})");
  EXPECT_EQ(mixed.rows_parsed, 2u);
  EXPECT_EQ(mixed.rows_matched, 3u);
  remove_store(path);
}

// A metric that is a number in one row and a payload in another is a
// default select column (it is a scalar somewhere); the row that holds the
// payload shows it, as the full rescan does.
TEST(QueryTest, DefaultSelectShowsAPayloadUnderAScalarName) {
  const std::string path = temp_path("qmixed.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0), synthetic_row(1)};
    Value payload;
    payload.set("worst_pct", Value(common::json::Array{Value(1), Value(2)}));
    rows[1].set("metrics", payload);
    store.append(rows);
  }
  const StoreView view(path);
  const Value qdoc = common::json::parse("{}");
  const QueryResult r = run_query(view, parse_query(qdoc), 1);
  EXPECT_EQ(report::to_csv(r.table()),
            report::to_csv(testsupport::reference_query(path, qdoc)));
  EXPECT_NE(report::to_csv(r.table()).find("[1,2]"), std::string::npos);
  EXPECT_EQ(r.stats.rows_parsed, 1u);
  remove_store(path);
}

TEST(QueryTest, StructuredPayloadSelectsAsJson) {
  const std::string path = build_store("qcurve.jsonl", 30, 2);
  const StoreView view(path);
  const QueryResult r = run_query(
      view,
      parse_query(common::json::parse(
          R"({"where":{"hash":"0000000000000000"},"select":["curve"]})")),
      1);
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_TRUE(r.rows[0][0].is_array());
  EXPECT_EQ(r.rows[0][0].as_array().size(), 3u);
  // And the table cell renders it as compact JSON.
  const report::Table t = r.table();
  EXPECT_EQ(t.rows[0][0].front(), '[');
  remove_store(path);
}

// The quantile aggregate is common::empirical_quantile, lo·(1 − f) + hi·f:
// at (lo, hi, f) = (3, 3.01, 0.1) that is 3.0010000000000003, where the
// former lo + f·(hi − lo) gave 3.001.
TEST(QueryTest, QuantileIsTheEmpiricalQuantile) {
  const std::string path = temp_path("qquantile.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0), synthetic_row(1)};
    for (int i = 0; i < 2; ++i) {
      Value metrics;
      metrics.set("worst_pct", i == 0 ? 3.01 : 3.0);
      rows[i].set("metrics", metrics);
    }
    store.append(rows);
  }
  const StoreView view(path);
  const Value qdoc = common::json::parse(
      R"({"agg":{"op":"quantile","q":0.1,"metrics":["worst_pct"]}})");
  const QueryResult r = run_query(view, parse_query(qdoc), 1);
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0].size(), 2u);  // count, quantile_worst_pct
  EXPECT_EQ(r.rows[0][1].as_number(), 3.0010000000000003);
  EXPECT_NE(r.rows[0][1].as_number(), 3.001);
  EXPECT_EQ(r.rows[0][1].as_number(),
            common::empirical_quantile({3.0, 3.01}, 0.1));
  EXPECT_EQ(report::to_csv(r.table()),
            report::to_csv(testsupport::reference_query(path, qdoc)));
  remove_store(path);
}

TEST(QueryTest, EmptyStoreYieldsEmptyResult) {
  const std::string path = temp_path("qempty.jsonl");
  remove_store(path);
  const StoreView view(path);
  EXPECT_EQ(view.total_rows(), 0u);
  const QueryResult r =
      run_query(view, parse_query(common::json::parse("{}")), 4);
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.to_json(),
            R"({"columns":["netlist","ras","t_active","t_standby","years","analysis"],"rows":[]})");
}

// --------------------------------------------------------------------------
// Serving.

TEST(ServeTest, HandleQueryWrapsResultsAndErrors) {
  const std::string path = build_store("serve_h.jsonl", 40, 4);
  const StoreView view(path);
  const std::string ok = handle_query(
      view, R"({"agg":{"op":"count","by":["netlist"]}})", 1);
  EXPECT_EQ(ok.find(R"({"ok":true,"columns":["netlist","count"],)"), 0u) << ok;
  EXPECT_NE(ok.find(R"("matched":40)"), std::string::npos) << ok;
  const std::string err = handle_query(view, R"({"bogus":1})", 1);
  EXPECT_EQ(err.find(R"({"ok":false,"error":)"), 0u) << err;
  const std::string garbage = handle_query(view, "not json at all", 1);
  EXPECT_EQ(garbage.find(R"({"ok":false)"), 0u) << garbage;
  // A NaN bound and an out-of-range limit are error lines, not answers.
  const std::string nan_bound = handle_query(
      view, R"({"where":{"worst_pct":{"min":NaN}},"agg":{"op":"count"}})", 1);
  EXPECT_EQ(nan_bound.find(R"({"ok":false,"error":)"), 0u) << nan_bound;
  EXPECT_NE(nan_bound.find("worst_pct"), std::string::npos) << nan_bound;
  const std::string huge_limit =
      handle_query(view, R"({"limit":1e300})", 1);
  EXPECT_EQ(huge_limit.find(R"({"ok":false,"error":)"), 0u) << huge_limit;
  EXPECT_NE(huge_limit.find("limit"), std::string::npos) << huge_limit;
  remove_store(path);
}

TEST(ServeTest, SessionAnswersLineByLine) {
  const std::string path = build_store("serve_s.jsonl", 25, 2);
  const StoreView view(path);
  std::istringstream in(
      "{\"agg\":{\"op\":\"count\"}}\n"
      "\n"
      "{\"where\":{\"netlist\":\"c432\"},\"agg\":{\"op\":\"count\"}}\n");
  std::ostringstream out;
  serve_session(view, in, out, 1);
  std::istringstream lines(out.str());
  std::string line;
  int responses = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find(R"({"ok":true)"), 0u) << line;
    ++responses;
  }
  EXPECT_EQ(responses, 2);  // the blank request line produced no response
  remove_store(path);
}

TEST(ServeTest, BitIdenticalResponsesAcrossConcurrentSessions) {
  const std::string path = build_store("serve_c.jsonl", 131, 8);
  const StoreView view(path);  // one shared view, many sessions
  std::string request_block;
  for (const char* text : kQueries) {
    request_block += text;
    request_block += '\n';
  }
  const int kSessions = 8;
  std::vector<std::string> outputs(kSessions);
  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      std::istringstream in(request_block);
      std::ostringstream out;
      serve_session(view, in, out, 1 + s % 4);
      outputs[static_cast<std::size_t>(s)] = out.str();
    });
  }
  for (std::thread& t : sessions) t.join();
  for (int s = 1; s < kSessions; ++s) {
    EXPECT_EQ(outputs[static_cast<std::size_t>(s)], outputs[0])
        << "session " << s;
  }
  remove_store(path);
}

// Plain socket round-trip (deliberately outside the determinism label: the
// protocol logic above already runs under TSan; this checks the TCP plumbing).
TEST(ServeTcpTest, AnswersOverLoopback) {
  const std::string path = build_store("serve_tcp.jsonl", 20, 2);
  const StoreView view(path);
  std::atomic<int> port{0};
  ServeOptions opt;
  opt.port = 0;
  opt.n_threads = 1;
  opt.max_connections = 1;
  opt.bound_port = &port;
  std::thread server([&] { serve_tcp(view, opt, nullptr); });
  while (port.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port.load()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const std::string request = "{\"agg\":{\"op\":\"count\"}}\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[1024];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();
  EXPECT_EQ(response.find(R"({"ok":true)"), 0u) << response;
  EXPECT_NE(response.find(R"("matched":20)"), std::string::npos) << response;
  remove_store(path);
}

}  // namespace
}  // namespace nbtisim::query
