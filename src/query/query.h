/// \file query.h
/// \brief Indexed queries over sharded campaign result stores.
///
/// The campaign store answers "is this task done" during a run; everything
/// richer — "system MTTF per netlist at 400 K", "the full Pareto front of
/// c432 under the worst condition" — used to mean rescanning and re-parsing
/// every JSONL row. This layer turns the store into a queryable result set:
/// a StoreView opens the base file and every shard with their sidecar
/// indexes (campaign/index.h), whose entries hold each row's coordinates and
/// scalar metric values, and run_query() answers a small declarative query
/// from those entries: every predicate, every scalar column and every
/// aggregate. A store row is read only when it matches and an output column
/// is not a scalar its entry lists — a structured payload such as "front",
/// or a member the row lacks or holds as a non-number. Such a row is
/// validated whole but read through a json::Projection that builds only
/// those columns.
///
/// ## The query language
///
/// One JSON object with four optional members:
///
///   {"where":  {<key>: <predicate>, ...},
///    "select": [<column>, ...],
///    "agg":    {"op": "count|min|max|sum|mean|quantile",
///               "q": 0.5, "by": [<coordinate>, ...],
///               "metrics": [<name>, ...]},
///    "limit":  <n>}
///
/// Keys are grid coordinates — "netlist", "ras", "analysis", "hash"
/// (strings) and "t_active", "t_standby", "years" (numbers) — or scalar
/// metric names. A predicate is an exact value, an array of alternatives,
/// or a {"min":..,"max":..} range (inclusive; either bound optional).
/// A predicate on a member the row lacks excludes the row.
///
/// Without "agg", the result is one output row per matching store row with
/// the selected columns ("select" defaults to the six coordinates plus
/// every scalar metric seen in the matches; structured payloads such as
/// "front" appear only when selected explicitly). With "agg", rows are
/// grouped by the "by" coordinates and reduced: the output carries the
/// group coordinates, the group row count, and one "<op>_<metric>" column
/// per aggregated metric (defaulting to every scalar metric seen).
/// Non-finite metric values are skipped by the reducers.
///
/// ## Determinism
///
/// Results are canonically ordered by (netlist, ras, t_active, t_standby,
/// years, analysis) with the task hash as tiebreak — not file order — so
/// the same logical store produces byte-identical output under any shard
/// layout and any thread count. Aggregation reduces in that canonical row
/// order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/index.h"
#include "common/json.h"
#include "report/report.h"

namespace nbtisim::query {

/// A read-only view of one sharded store: every store file present on disk
/// (base + shards, any layout) with its loaded sidecar index. Opening
/// validates/rebuilds the sidecars once; afterwards the view is immutable
/// and safe to share across concurrent run_query() calls.
class StoreView {
 public:
  /// Opens the store rooted at \p path (same path the campaign spec names).
  /// Missing files are simply absent; a store that does not exist at all
  /// yields an empty view.
  /// \throws std::runtime_error on non-trailing corruption in a store file
  explicit StoreView(std::string path);

  const std::string& path() const { return path_; }

  /// One store file and its index.
  struct File {
    std::string path;
    campaign::StoreIndex index;
  };
  const std::vector<File>& files() const { return files_; }

  /// Total indexed rows across all files.
  std::size_t total_rows() const;

 private:
  std::string path_;
  std::vector<File> files_;
};

/// One parsed predicate: membership in \p any_of (exact Value equality),
/// and/or an inclusive numeric range.
struct Predicate {
  std::vector<common::json::Value> any_of;
  bool has_range = false;
  double min = 0.0, max = 0.0;  ///< valid when has_range
};

/// Aggregation request.
struct Aggregate {
  std::string op;                    ///< count|min|max|sum|mean|quantile
  double q = 0.5;                    ///< quantile point (op == "quantile")
  std::vector<std::string> by;       ///< group-by coordinates
  std::vector<std::string> metrics;  ///< empty: every scalar metric seen
};

/// A parsed, validated query.
struct Query {
  std::vector<std::pair<std::string, Predicate>> where;
  std::vector<std::string> select;  ///< empty: default column set
  bool has_agg = false;
  Aggregate agg;
  long long limit = -1;  ///< < 0: unlimited
};

/// Parses and validates one query document.
/// \throws std::invalid_argument naming the offending member
Query parse_query(const common::json::Value& q);

/// Work accounting for one run_query() — the proof that the index pruned.
struct QueryStats {
  int files = 0;                  ///< store files consulted
  std::size_t index_entries = 0;  ///< index entries scanned
  std::size_t rows_parsed = 0;    ///< store rows read for non-scalar columns
  std::size_t rows_matched = 0;   ///< rows that passed every predicate
};

/// One query's result: column names plus JSON cell values (null for absent
/// members), in canonical row order.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<common::json::Value>> rows;
  QueryStats stats;

  /// Renders as a report table (cells formatted like summarize: numbers in
  /// shortest round-trip form, null as empty, nested payloads as compact
  /// JSON) for md/csv output.
  report::Table table() const;

  /// Strict RFC 8259 JSON: {"columns":[...],"rows":[[...],...]} with
  /// non-finite numbers encoded as null.
  std::string to_json() const;
};

/// Evaluates \p q against \p view. Predicates, scalar columns and
/// aggregates are answered from the index entries; a matching row is read
/// only for an output column that its entry does not list as a scalar (a
/// payload, or a default-select metric the row lacks as a number). Files
/// are scanned on the shared work pool, \p n_threads wide (a
/// common::ThreadBudget scope; 0 = hardware concurrency). Bit-identical
/// output for every \p n_threads and every shard layout of the same
/// logical store.
/// \throws std::invalid_argument for a negative \p n_threads
QueryResult run_query(const StoreView& view, const Query& q, int n_threads);

}  // namespace nbtisim::query
