#include "query/query.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "campaign/store.h"
#include "common/pool.h"

namespace nbtisim::query {
namespace {

using campaign::IndexEntry;
using common::json::Value;

constexpr const char* kStringCoords[] = {"netlist", "ras", "analysis", "hash"};
constexpr const char* kNumberCoords[] = {"t_active", "t_standby", "years"};

bool is_string_coord(std::string_view key) {
  for (const char* c : kStringCoords) {
    if (key == c) return true;
  }
  return false;
}

bool is_number_coord(std::string_view key) {
  for (const char* c : kNumberCoords) {
    if (key == c) return true;
  }
  return false;
}

bool is_coord(std::string_view key) {
  return is_string_coord(key) || is_number_coord(key);
}

const std::string& entry_string(const IndexEntry& e, std::string_view key) {
  if (key == "netlist") return e.netlist;
  if (key == "ras") return e.ras;
  if (key == "analysis") return e.analysis;
  return e.hash;
}

double entry_number(const IndexEntry& e, std::string_view key) {
  if (key == "t_active") return e.t_active;
  if (key == "t_standby") return e.t_standby;
  return e.years;
}

bool match_value(const Predicate& p, const Value& v) {
  if (!p.any_of.empty()) {
    bool any = false;
    for (const Value& cand : p.any_of) {
      if (v == cand) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  if (p.has_range) {
    if (!v.is_number()) return false;
    const double d = v.as_number();
    if (std::isnan(d) || d < p.min || d > p.max) return false;
  }
  return true;
}

/// Coordinate predicates evaluated on the index entry alone. An absent
/// coordinate (empty string / NaN) never matches an equality or range.
bool entry_matches(const IndexEntry& e,
                   const std::vector<std::pair<std::string, Predicate>>& preds) {
  for (const auto& [key, p] : preds) {
    if (is_string_coord(key)) {
      const std::string& s = entry_string(e, key);
      if (s.empty() && key != "hash") return false;
      if (!match_value(p, Value(s))) return false;
    } else if (is_number_coord(key)) {
      const double d = entry_number(e, key);
      if (std::isnan(d)) return false;
      if (!match_value(p, Value(d))) return false;
    } else {
      // Metric predicate: the index lists the row's scalar metric names, so
      // a row without the metric is excluded without a parse. The value
      // check happens after the parse.
      if (std::find(e.metrics.begin(), e.metrics.end(), key) ==
          e.metrics.end()) {
        return false;
      }
    }
  }
  return true;
}

/// NaN ranks below every number; otherwise the usual total order.
int cmp_double(double a, double b) {
  const bool na = std::isnan(a), nb = std::isnan(b);
  if (na || nb) return na == nb ? 0 : (na ? -1 : 1);
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// Canonical result order: coordinate tuple, then hash as tiebreak. Rows
/// with equal hashes are identical campaign rows, so ties cannot change
/// the output bytes.
bool entry_less(const IndexEntry& a, const IndexEntry& b) {
  if (int c = a.netlist.compare(b.netlist)) return c < 0;
  if (int c = a.ras.compare(b.ras)) return c < 0;
  if (int c = cmp_double(a.t_active, b.t_active)) return c < 0;
  if (int c = cmp_double(a.t_standby, b.t_standby)) return c < 0;
  if (int c = cmp_double(a.years, b.years)) return c < 0;
  if (int c = a.analysis.compare(b.analysis)) return c < 0;
  return a.hash < b.hash;
}

struct Matched {
  const IndexEntry* entry = nullptr;
  Value row;  ///< parsed store row; null when the query never needed it
  bool parsed = false;
};

/// The selected / grouped cell for column \p col: coordinates come from the
/// index entry (always present there when present in the row), everything
/// else from the parsed row's metrics object. Null when absent.
Value cell_value(const Matched& m, const std::string& col) {
  const IndexEntry& e = *m.entry;
  if (col == "hash") return Value(e.hash);
  if (is_string_coord(col)) {
    const std::string& s = entry_string(e, col);
    return s.empty() ? Value() : Value(s);
  }
  if (is_number_coord(col)) {
    const double d = entry_number(e, col);
    return std::isnan(d) ? Value() : Value(d);
  }
  if (!m.parsed) return Value();
  if (const Value* metrics = m.row.find("metrics")) {
    if (const Value* v = metrics->find(col)) return *v;
  }
  return Value();
}

Predicate parse_predicate(const std::string& key, const Value& v) {
  Predicate p;
  const auto leaf = [&](const Value& cand) {
    if (!cand.is_string() && !cand.is_number()) {
      throw std::invalid_argument("query: predicate for \"" + key +
                                  "\" must use strings or numbers");
    }
    p.any_of.push_back(cand);
  };
  switch (v.kind()) {
    case Value::Kind::String:
    case Value::Kind::Number: leaf(v); break;
    case Value::Kind::Array: {
      if (v.as_array().empty()) {
        throw std::invalid_argument("query: empty alternative list for \"" +
                                    key + "\"");
      }
      for (const Value& cand : v.as_array()) leaf(cand);
      break;
    }
    case Value::Kind::Object: {
      p.has_range = true;
      p.min = -std::numeric_limits<double>::infinity();
      p.max = std::numeric_limits<double>::infinity();
      bool bounded = false;
      for (const auto& [k, bound] : v.as_object()) {
        if (k == "min") {
          p.min = bound.as_number();
          bounded = true;
        } else if (k == "max") {
          p.max = bound.as_number();
          bounded = true;
        } else {
          throw std::invalid_argument("query: range for \"" + key +
                                      "\" allows only \"min\"/\"max\" (got \"" +
                                      k + "\")");
        }
      }
      if (!bounded) {
        throw std::invalid_argument("query: range for \"" + key +
                                    "\" needs \"min\" or \"max\"");
      }
      break;
    }
    default:
      throw std::invalid_argument("query: bad predicate for \"" + key + "\"");
  }
  return p;
}

Aggregate parse_aggregate(const Value& v) {
  if (!v.is_object()) {
    throw std::invalid_argument("query: \"agg\" must be an object");
  }
  Aggregate a;
  for (const auto& [k, member] : v.as_object()) {
    if (k == "op") {
      a.op = member.as_string();
    } else if (k == "q") {
      a.q = member.as_number();
    } else if (k == "by") {
      for (const Value& c : member.as_array()) {
        const std::string& name = c.as_string();
        if (!is_coord(name)) {
          throw std::invalid_argument(
              "query: \"by\" accepts grid coordinates only (got \"" + name +
              "\")");
        }
        a.by.push_back(name);
      }
    } else if (k == "metrics") {
      for (const Value& m : member.as_array()) a.metrics.push_back(m.as_string());
    } else {
      throw std::invalid_argument("query: unknown \"agg\" member \"" + k +
                                  "\"");
    }
  }
  static constexpr const char* kOps[] = {"count", "min",  "max",
                                         "sum",   "mean", "quantile"};
  if (std::find(std::begin(kOps), std::end(kOps), a.op) == std::end(kOps)) {
    throw std::invalid_argument(
        "query: \"agg.op\" must be count|min|max|sum|mean|quantile (got \"" +
        a.op + "\")");
  }
  if (a.op == "quantile" && !(a.q >= 0.0 && a.q <= 1.0)) {
    throw std::invalid_argument("query: \"agg.q\" must be in [0, 1]");
  }
  return a;
}

/// Reduces \p values (finite, canonical row order) with \p agg's operator.
double reduce(const Aggregate& agg, std::vector<double>& values) {
  if (agg.op == "min") return *std::min_element(values.begin(), values.end());
  if (agg.op == "max") return *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  if (agg.op == "sum") return sum;
  if (agg.op == "mean") return sum / static_cast<double>(values.size());
  // quantile: sorted linear interpolation
  std::sort(values.begin(), values.end());
  const double h = agg.q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Scalar metric names over the matched rows, first appearance in canonical
/// row order — the default select/aggregate metric set.
std::vector<std::string> metric_union(const std::vector<Matched>& matched) {
  std::vector<std::string> names;
  for (const Matched& m : matched) {
    for (const std::string& name : m.entry->metrics) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  return names;
}

}  // namespace

StoreView::StoreView(std::string path) : path_(std::move(path)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  auto add = [this](const std::string& p) {
    File f;
    f.path = p;
    f.index = campaign::load_index(p);
    files_.push_back(std::move(f));
  };
  if (fs::exists(path_, ec)) add(path_);
  for (int h = 0; h < campaign::ShardedStore::kMaxShards; ++h) {
    const std::string sp = campaign::ShardedStore::shard_path(path_, h);
    if (fs::exists(sp, ec)) add(sp);
  }
}

std::size_t StoreView::total_rows() const {
  std::size_t total = 0;
  for (const File& f : files_) total += f.index.entries.size();
  return total;
}

Query parse_query(const Value& q) {
  if (!q.is_object()) {
    throw std::invalid_argument("query: document must be an object");
  }
  Query out;
  for (const auto& [key, member] : q.as_object()) {
    if (key == "where") {
      if (!member.is_object()) {
        throw std::invalid_argument("query: \"where\" must be an object");
      }
      for (const auto& [col, pred] : member.as_object()) {
        out.where.emplace_back(col, parse_predicate(col, pred));
      }
    } else if (key == "select") {
      for (const Value& col : member.as_array()) {
        out.select.push_back(col.as_string());
      }
      if (out.select.empty()) {
        throw std::invalid_argument("query: \"select\" must name columns");
      }
    } else if (key == "agg") {
      out.has_agg = true;
      out.agg = parse_aggregate(member);
    } else if (key == "limit") {
      const double n = member.as_number();
      if (n < 0 || n != static_cast<double>(static_cast<long long>(n))) {
        throw std::invalid_argument(
            "query: \"limit\" must be a non-negative integer");
      }
      out.limit = static_cast<long long>(n);
    } else {
      throw std::invalid_argument("query: unknown member \"" + key + "\"");
    }
  }
  return out;
}

QueryResult run_query(const StoreView& view, const Query& q, int n_threads) {
  // Does any step need the row content, or do index entries suffice?
  // Metric value predicates and metric output columns need the parse;
  // count-style aggregations over coordinates never touch the files.
  bool needs_rows = false;
  for (const auto& [key, p] : q.where) {
    if (!is_coord(key)) needs_rows = true;
  }
  if (q.has_agg) {
    if (q.agg.op != "count") needs_rows = true;
  } else if (q.select.empty()) {
    needs_rows = true;  // default select carries metric values
  } else {
    for (const std::string& col : q.select) {
      if (!is_coord(col)) needs_rows = true;
    }
  }
  // Metric *value* predicates (ranges / equalities on non-coordinates) are
  // re-checked on the parsed row; name containment already ran on the entry.
  std::vector<const std::pair<std::string, Predicate>*> metric_preds;
  for (const auto& kp : q.where) {
    if (!is_coord(kp.first)) metric_preds.push_back(&kp);
  }

  struct FileScan {
    std::vector<Matched> matched;
    std::size_t parsed = 0;
  };
  const int n_files = static_cast<int>(view.files().size());
  std::vector<FileScan> scans(static_cast<std::size_t>(n_files));
  const common::ThreadBudget budget(n_threads);
  common::parallel_for(n_files, [&](int fi) {
    const StoreView::File& file = view.files()[static_cast<std::size_t>(fi)];
    FileScan& scan = scans[static_cast<std::size_t>(fi)];
    std::ifstream f;  // opened lazily: count-only scans never touch the file
    std::string buf;
    for (const IndexEntry& e : file.index.entries) {
      if (!entry_matches(e, q.where)) continue;
      Matched m;
      m.entry = &e;
      if (needs_rows) {
        if (!f.is_open()) {
          f.open(file.path, std::ios::binary);
          if (!f) {
            throw std::runtime_error("query: cannot open " + file.path);
          }
        }
        buf.resize(e.length);
        f.seekg(static_cast<std::streamoff>(e.offset));
        f.read(buf.data(), static_cast<std::streamsize>(e.length));
        if (!f) {
          throw std::runtime_error("query: short read in " + file.path);
        }
        m.row = common::json::parse(buf);
        m.parsed = true;
        ++scan.parsed;
        bool ok = true;
        for (const auto* kp : metric_preds) {
          const Value* metrics = m.row.find("metrics");
          const Value* v =
              metrics == nullptr ? nullptr : metrics->find(kp->first);
          if (v == nullptr || !match_value(kp->second, *v)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
      }
      scan.matched.push_back(std::move(m));
    }
  });

  QueryResult out;
  out.stats.files = n_files;
  for (const StoreView::File& f : view.files()) {
    out.stats.index_entries += f.index.entries.size();
  }
  std::vector<Matched> matched;
  for (FileScan& scan : scans) {
    out.stats.rows_parsed += scan.parsed;
    for (Matched& m : scan.matched) matched.push_back(std::move(m));
  }
  std::sort(matched.begin(), matched.end(),
            [](const Matched& a, const Matched& b) {
              return entry_less(*a.entry, *b.entry);
            });
  out.stats.rows_matched = matched.size();

  if (!q.has_agg) {
    out.columns = q.select;
    if (out.columns.empty()) {
      out.columns = {"netlist", "ras",   "t_active",
                     "t_standby", "years", "analysis"};
      for (std::string& name : metric_union(matched)) {
        out.columns.push_back(std::move(name));
      }
    }
    for (const Matched& m : matched) {
      std::vector<Value> cells;
      cells.reserve(out.columns.size());
      for (const std::string& col : out.columns) {
        cells.push_back(cell_value(m, col));
      }
      out.rows.push_back(std::move(cells));
    }
  } else {
    const Aggregate& agg = q.agg;
    std::vector<std::string> metric_cols;
    if (agg.op != "count") {
      metric_cols = agg.metrics.empty() ? metric_union(matched) : agg.metrics;
    }
    out.columns = agg.by;
    out.columns.push_back("count");
    for (const std::string& m : metric_cols) {
      out.columns.push_back(agg.op + "_" + m);
    }
    // Group in canonical row order; the group key is the dumped by-tuple.
    struct Group {
      std::vector<Value> key;
      std::vector<const Matched*> rows;
    };
    std::vector<Group> groups;
    std::unordered_map<std::string, std::size_t> group_of;
    for (const Matched& m : matched) {
      std::vector<Value> key;
      key.reserve(agg.by.size());
      common::json::Array key_doc;
      for (const std::string& col : agg.by) {
        key.push_back(cell_value(m, col));
        key_doc.push_back(key.back());
      }
      const std::string key_str = common::json::dump(Value(key_doc));
      auto [it, fresh] = group_of.emplace(key_str, groups.size());
      if (fresh) groups.push_back(Group{std::move(key), {}});
      groups[it->second].rows.push_back(&m);
    }
    for (Group& g : groups) {
      std::vector<Value> cells = std::move(g.key);
      cells.emplace_back(static_cast<double>(g.rows.size()));
      for (const std::string& mname : metric_cols) {
        std::vector<double> values;
        values.reserve(g.rows.size());
        for (const Matched* m : g.rows) {
          const Value v = cell_value(*m, mname);
          if (v.is_number() && std::isfinite(v.as_number())) {
            values.push_back(v.as_number());
          }
        }
        cells.push_back(values.empty() ? Value() : Value(reduce(agg, values)));
      }
      out.rows.push_back(std::move(cells));
    }
  }

  if (q.limit >= 0 && out.rows.size() > static_cast<std::size_t>(q.limit)) {
    out.rows.resize(static_cast<std::size_t>(q.limit));
  }
  return out;
}

report::Table QueryResult::table() const {
  report::Table t;
  t.headers = columns;
  for (const std::vector<Value>& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Value& v : row) {
      switch (v.kind()) {
        case Value::Kind::Null: cells.emplace_back(); break;
        case Value::Kind::String: cells.push_back(v.as_string()); break;
        case Value::Kind::Number:
          cells.push_back(common::json::format_number(v.as_number()));
          break;
        default: cells.push_back(common::json::dump(v));
      }
    }
    t.add_row(std::move(cells));
  }
  return t;
}

std::string QueryResult::to_json() const {
  Value doc;
  common::json::Array cols;
  for (const std::string& c : columns) cols.emplace_back(c);
  doc.set("columns", Value(std::move(cols)));
  common::json::Array out_rows;
  out_rows.reserve(rows.size());
  for (const std::vector<Value>& row : rows) {
    common::json::Array cells;
    cells.reserve(row.size());
    for (const Value& v : row) cells.push_back(v);
    out_rows.push_back(Value(std::move(cells)));
  }
  doc.set("rows", Value(std::move(out_rows)));
  return common::json::dump(doc, -1, common::json::NonFinite::Null);
}

}  // namespace nbtisim::query
