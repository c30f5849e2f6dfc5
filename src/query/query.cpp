#include "query/query.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "campaign/store.h"
#include "common/pool.h"
#include "common/quantile.h"

namespace nbtisim::query {
namespace {

using campaign::IndexEntry;
using common::json::Value;

/// The largest "limit": every integer up to it is an exact double.
constexpr double kMaxLimit = 9007199254740992.0;

/// The index-entry field a grid coordinate key reads: a string (netlist,
/// ras, analysis, hash) or a number (t_active, t_standby, years). Neither
/// for a metric name.
struct Field {
  const std::string IndexEntry::* text = nullptr;
  double IndexEntry::* number = nullptr;
};

Field coord_field(std::string_view key) {
  if (key == "netlist") return {&IndexEntry::netlist};
  if (key == "ras") return {&IndexEntry::ras};
  if (key == "analysis") return {&IndexEntry::analysis};
  if (key == "hash") return {&IndexEntry::hash};
  if (key == "t_active") return {nullptr, &IndexEntry::t_active};
  if (key == "t_standby") return {nullptr, &IndexEntry::t_standby};
  if (key == "years") return {nullptr, &IndexEntry::years};
  return {};
}

bool is_coord(std::string_view key) {
  const Field f = coord_field(key);
  return f.text != nullptr || f.number != nullptr;
}

/// One where-predicate compiled for one run_query(): the index-entry field
/// a coordinate key reads, and the alternatives split by kind, so testing
/// an entry builds no json::Value.
struct Compiled {
  const std::string* key = nullptr;
  const Predicate* pred = nullptr;
  Field field;  ///< neither member set: a metric predicate
  std::vector<std::string_view> strings;  ///< the string alternatives
  std::vector<double> numbers;            ///< the number alternatives

  /// Predicate::any_of equality and range, as a string value sees them.
  bool matches(std::string_view s) const {
    if (pred->has_range) return false;  // a range holds numbers only
    return pred->any_of.empty() ||
           std::find(strings.begin(), strings.end(), s) != strings.end();
  }
  bool matches(double d) const {
    if (!pred->any_of.empty() &&
        std::find(numbers.begin(), numbers.end(), d) == numbers.end()) {
      return false;
    }
    return !pred->has_range ||
           (!std::isnan(d) && d >= pred->min && d <= pred->max);
  }
};

std::vector<Compiled> compile(
    const std::vector<std::pair<std::string, Predicate>>& where) {
  std::vector<Compiled> out;
  out.reserve(where.size());
  for (const auto& [key, p] : where) {
    Compiled c{&key, &p, coord_field(key), {}, {}};
    for (const Value& cand : p.any_of) {
      if (cand.is_string()) c.strings.emplace_back(cand.as_string());
      if (cand.is_number()) c.numbers.push_back(cand.as_number());
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// Every predicate evaluated on the index entry alone. An absent coordinate
/// (empty string / NaN) never matches an equality or range, and a metric
/// predicate holds only on a scalar metric the entry lists.
bool entry_matches(const IndexEntry& e, const std::vector<Compiled>& preds) {
  for (const Compiled& c : preds) {
    if (c.field.text != nullptr) {
      const std::string& s = e.*c.field.text;
      if (s.empty() && c.field.text != &IndexEntry::hash) return false;
      if (!c.matches(std::string_view(s))) return false;
    } else if (c.field.number != nullptr) {
      const double d = e.*c.field.number;
      if (std::isnan(d) || !c.matches(d)) return false;
    } else {
      const double* v = e.metric(*c.key);
      if (v == nullptr || !c.matches(*v)) return false;
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
  Value row;  ///< projected store row; null when the query never needed it
};

/// The selected / grouped cell for column \p col: coordinates and scalar
/// metrics come from the index entry (present there whenever the row has
/// them), any other member from the row's metrics object when the row was
/// read. Null when absent.
Value cell_value(const Matched& m, const std::string& col) {
  const IndexEntry& e = *m.entry;
  const Field f = coord_field(col);
  if (f.text != nullptr) {
    const std::string& s = e.*f.text;
    return s.empty() && f.text != &IndexEntry::hash ? Value() : Value(s);
  }
  if (f.number != nullptr) {
    const double d = e.*f.number;
    return std::isnan(d) ? Value() : Value(d);
  }
  if (const double* v = e.metric(col)) return Value(*v);
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
        if (k == "min" || k == "max") {
          const double d = bound.as_number();
          // No row lies in a range with a NaN bound; ±Infinity is open.
          if (std::isnan(d)) {
            throw std::invalid_argument("query: range bound \"" + k +
                                        "\" for \"" + key + "\" is NaN");
          }
          (k == "min" ? p.min : p.max) = d;
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
double reduce(const Aggregate& agg, const std::vector<double>& values) {
  if (agg.op == "min") return *std::min_element(values.begin(), values.end());
  if (agg.op == "max") return *std::max_element(values.begin(), values.end());
  if (agg.op == "quantile") return common::empirical_quantile(values, agg.q);
  double sum = 0.0;
  for (double v : values) sum += v;
  return agg.op == "sum" ? sum : sum / static_cast<double>(values.size());
}

/// What a matched row's read keeps: the members of its "metrics" that the
/// output \p columns name and that are not coordinates. A row is read only
/// when its entry does not list one of them as a scalar.
common::json::Projection row_read(const std::vector<std::string>& columns) {
  common::json::Projection p;
  p.member = "metrics";
  p.all = false;
  for (const std::string& col : columns) {
    if (!is_coord(col) &&
        std::find(p.names.begin(), p.names.end(), col) == p.names.end()) {
      p.names.push_back(col);
    }
  }
  return p;
}

/// Scalar metric names over the matched rows, first appearance in canonical
/// row order — the default select/aggregate metric set.
std::vector<std::string> metric_union(const std::vector<Matched*>& matched) {
  std::vector<std::string> names;
  for (const Matched* m : matched) {
    for (const auto& [name, value] : m->entry->metrics) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  return names;
}

}  // namespace

StoreView::StoreView(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  for (const std::string& file : campaign::ShardedStore::files(path_)) {
    if (std::filesystem::exists(file, ec)) {
      files_.push_back(File{file, campaign::load_index(file)});
    }
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
      // The range is checked before the cast, which is undefined beyond it.
      const double n = member.as_number();
      if (!(n >= 0.0 && n <= kMaxLimit) || n != std::floor(n)) {
        throw std::invalid_argument(
            "query: \"limit\" must be an integer in [0, 2^53]");
      }
      out.limit = static_cast<long long>(n);
    } else {
      throw std::invalid_argument("query: unknown member \"" + key + "\"");
    }
  }
  return out;
}

QueryResult run_query(const StoreView& view, const Query& q, int n_threads) {
  const std::vector<Compiled> preds = compile(q.where);
  const int n_files = static_cast<int>(view.files().size());
  const common::ThreadBudget budget(n_threads);

  // Every predicate is answered by the index entries.
  std::vector<std::vector<Matched>> scans(static_cast<std::size_t>(n_files));
  common::parallel_for(n_files, [&](int fi) {
    const std::size_t f = static_cast<std::size_t>(fi);
    for (const IndexEntry& e : view.files()[f].index.entries) {
      if (entry_matches(e, preds)) scans[f].emplace_back().entry = &e;
    }
  });

  QueryResult out;
  out.stats.files = n_files;
  std::vector<Matched*> matched;
  for (std::size_t f = 0; f < scans.size(); ++f) {
    out.stats.index_entries += view.files()[f].index.entries.size();
    for (Matched& m : scans[f]) matched.push_back(&m);
  }
  std::sort(matched.begin(), matched.end(),
            [](const Matched* a, const Matched* b) {
              return entry_less(*a->entry, *b->entry);
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
    // A row is read for a column its entry does not list as a scalar: a
    // payload, or a member the row lacks or holds as a non-number.
    const common::json::Projection read = row_read(out.columns);
    std::vector<std::size_t> parsed(scans.size(), 0);
    if (!read.names.empty()) {
      common::parallel_for(n_files, [&](int fi) {
        const std::size_t f = static_cast<std::size_t>(fi);
        campaign::ExtentReader rows(view.files()[f].path);
        for (Matched& m : scans[f]) {
          const IndexEntry& e = *m.entry;
          if (std::all_of(read.names.begin(), read.names.end(),
                          [&e](const std::string& name) {
                            return e.metric(name) != nullptr;
                          })) {
            continue;
          }
          m.row = common::json::parse(rows.read(e.offset, e.length), read);
          ++parsed[f];
        }
      });
    }
    for (std::size_t n : parsed) out.stats.rows_parsed += n;
    for (const Matched* m : matched) {
      std::vector<Value> cells;
      cells.reserve(out.columns.size());
      for (const std::string& col : out.columns) {
        cells.push_back(cell_value(*m, col));
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
    // Group in canonical row order; the group key is the by-cells' dumps,
    // each followed by a comma (a dump is self-delimiting, so equal keys
    // are equal tuples).
    struct Group {
      std::vector<Value> key;
      std::vector<const IndexEntry*> rows;
    };
    std::vector<Group> groups;
    std::unordered_map<std::string, std::size_t> group_of;
    std::string key_str;
    for (const Matched* m : matched) {
      key_str.clear();
      for (const std::string& col : agg.by) {
        key_str += common::json::dump(cell_value(*m, col));
        key_str += ',';
      }
      auto [it, fresh] = group_of.try_emplace(key_str, groups.size());
      if (fresh) {
        std::vector<Value> key;
        key.reserve(agg.by.size());
        for (const std::string& col : agg.by) {
          key.push_back(cell_value(*m, col));
        }
        groups.push_back(Group{std::move(key), {}});
      }
      groups[it->second].rows.push_back(m->entry);
    }
    // The reducers skip non-numbers and non-finite values, so they read the
    // entries' scalars and never a row.
    std::vector<double> values;
    for (Group& g : groups) {
      std::vector<Value> cells = std::move(g.key);
      cells.emplace_back(static_cast<double>(g.rows.size()));
      for (const std::string& mname : metric_cols) {
        values.clear();
        for (const IndexEntry* e : g.rows) {
          const double* v = e->metric(mname);
          if (v != nullptr && std::isfinite(*v)) values.push_back(*v);
        }
        if (values.empty()) {
          cells.emplace_back();
        } else {
          cells.emplace_back(reduce(agg, values));
        }
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
