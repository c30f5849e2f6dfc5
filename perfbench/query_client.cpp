#include "query_client.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <stdexcept>

#include "campaign/spec.h"
#include "common/rng.h"
#include "query/serve.h"
#include "report/report.h"
#include "support/reference.h"

namespace perfbench {

namespace json = nbtisim::common::json;
using json::Value;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

Universe universe_of(const std::vector<const Value*>& rows) {
  Universe u;
  for (const Value* row : rows) {
    u.hashes.push_back(row->at("hash").as_string());
    const std::string& nl = row->at("netlist").as_string();
    if (std::find(u.netlists.begin(), u.netlists.end(), nl) ==
        u.netlists.end()) {
      u.netlists.push_back(nl);
    }
    const double ts = row->at("t_standby").as_number();
    if (std::find(u.t_standby.begin(), u.t_standby.end(), ts) ==
        u.t_standby.end()) {
      u.t_standby.push_back(ts);
    }
    const std::string& a = row->at("analysis").as_string();
    std::vector<std::string>& names = u.metrics[a];
    for (const auto& [name, v] : row->at("metrics").as_object()) {
      if (!v.is_number()) {
        u.payloads.try_emplace(a, name);
        continue;
      }
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
      if (!std::isfinite(v.as_number())) continue;
      const std::string key = a + "|" + name;
      auto [it, fresh] =
          u.ranges.try_emplace(key, v.as_number(), v.as_number());
      if (!fresh) {
        it->second.first = std::min(it->second.first, v.as_number());
        it->second.second = std::max(it->second.second, v.as_number());
      }
    }
  }
  return u;
}

namespace {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(nbtisim::common::splitmix64(seed)) {}
  std::size_t below(std::size_t n) { return gen_() % n; }
  double unit() { return (gen_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 gen_;
};

Value strings(std::initializer_list<std::string> names) {
  json::Array a;
  for (const std::string& n : names) a.emplace_back(n);
  return Value(std::move(a));
}

/// The \p k-th request of \p shape. Parameters cycle through the store's
/// analyses, netlists and rows, so every seed asks for the same mix of row
/// sizes and the latency distribution does not depend on which rows the
/// draws happened to hit; the seed sets where each cycle starts, the range
/// bounds and the order of the requests.
std::string make_request(const std::string& shape, std::size_t k,
                         const Universe& u, Rng& rng) {
  std::vector<std::string> analyses;
  for (const auto& [a, names] : u.metrics) {
    if (!names.empty()) analyses.push_back(a);
  }
  auto nth = [](const auto& v, std::size_t i) -> const auto& {
    return v[i % v.size()];
  };
  const std::size_t na = analyses.size();
  const std::size_t nn = u.netlists.size();
  Value q;
  Value where;
  if (shape == "hash") {
    where.set("hash", nth(u.hashes, k * 7919));
  } else if (shape == "filter") {
    const std::string& a = nth(analyses, k);
    where.set("netlist", nth(u.netlists, k / na));
    where.set("analysis", a);
    where.set("t_standby", nth(u.t_standby, k / (na * nn)));
    q.set("select", strings({"netlist", "ras", "t_standby", "years",
                             u.metrics.at(a).front()}));
  } else if (shape == "count") {
    where.set("analysis", nth(analyses, k));
    Value agg;
    agg.set("op", "count");
    agg.set("by", strings({"netlist", "t_standby"}));
    q.set("agg", std::move(agg));
  } else if (shape == "range") {
    const std::string& a = nth(analyses, k);
    const std::string& m = nth(u.metrics.at(a), k / na);
    const auto it = u.ranges.find(a + "|" + m);
    const double lo = it == u.ranges.end() ? 0.0 : it->second.first;
    const double span = it == u.ranges.end() ? 0.0 : it->second.second - lo;
    Value range;
    range.set("min", lo + 0.5 * span * rng.unit());
    range.set("max", lo + span * (0.5 + 0.5 * rng.unit()));
    where.set("analysis", a);
    where.set(m, std::move(range));
    q.set("select", strings({"netlist", "ras", m}));
  } else if (shape == "payload") {
    std::vector<std::string> with_payload;
    for (const auto& [a, p] : u.payloads) with_payload.push_back(a);
    const std::vector<std::string>& pool =
        with_payload.empty() ? analyses : with_payload;
    const std::string& a = nth(pool, k);
    const auto p = u.payloads.find(a);
    where.set("analysis", a);
    where.set("netlist", nth(u.netlists, k / pool.size()));
    q.set("select", strings({"netlist", "ras", "t_standby",
                             p == u.payloads.end() ? u.metrics.at(a).front()
                                                   : p->second}));
  } else if (shape == "meanby") {
    // The same third of the analyses every time, so the request parses a
    // fixed share of the rows; one metric from each.
    json::Array some;
    json::Array metrics;
    for (std::size_t i = 0; i < (na + 2) / 3; ++i) {
      some.emplace_back(analyses[i]);
      metrics.emplace_back(u.metrics.at(analyses[i]).front());
    }
    where.set("analysis", Value(std::move(some)));
    Value agg;
    agg.set("op", "mean");
    agg.set("by", strings({"netlist"}));
    agg.set("metrics", Value(std::move(metrics)));
    q.set("agg", std::move(agg));
  } else {
    throw std::invalid_argument("perfbench: unknown request shape " + shape);
  }
  Value doc;
  doc.set("where", std::move(where));
  if (q.is_object()) {
    for (auto& [key, v] : q.as_object()) doc.set(key, v);
  }
  return json::dump(doc);
}

}  // namespace

std::vector<Request> make_requests(
    const Universe& u, const std::vector<std::pair<std::string, int>>& mix,
    int n_warm, int cold_every, std::uint64_t seed) {
  Rng rng(seed ^ 0x7175657279ull);
  int total_weight = 0;
  for (const auto& [shape, w] : mix) total_weight += w;
  std::vector<std::string> shapes;
  for (const auto& [shape, w] : mix) {
    const int n = static_cast<int>(
        std::lround(static_cast<double>(w) * n_warm / total_weight));
    shapes.insert(shapes.end(), static_cast<std::size_t>(n), shape);
  }
  for (std::size_t i = shapes.size(); i > 1; --i) {
    std::swap(shapes[i - 1], shapes[rng.below(i)]);
  }
  static const std::vector<std::string> kColdShapes = {
      "hash", "filter", "count", "payload", "range"};
  // Each shape's cycle starts at a seeded offset.
  std::map<std::string, std::size_t> next;
  for (const auto& [shape, w] : mix) next[shape] = rng.below(1u << 20);
  std::vector<Request> out;
  std::size_t cold = 0;
  for (const std::string& shape : shapes) {
    out.push_back({make_request(shape, next[shape]++, u, rng), shape, false});
    if (cold_every > 1 &&
        static_cast<int>(out.size() % cold_every) == cold_every - 1) {
      const std::string& s = kColdShapes[cold % kColdShapes.size()];
      out.push_back({make_request(s, cold++, u, rng), s, true});
    }
  }
  return out;
}

namespace {

/// handle_query()'s envelope around an answer's body.
std::string envelope(const nbtisim::query::QueryResult& r) {
  const std::string body = r.to_json();
  std::string out = "{\"ok\":true,";
  out.append(body, 1, body.size() - 2);
  out += ",\"matched\":" + std::to_string(r.stats.rows_matched);
  out += ",\"parsed\":" + std::to_string(r.stats.rows_parsed);
  out += '}';
  return out;
}

}  // namespace

ClientResult run_client(const std::string& store_path,
                        const nbtisim::query::StoreView& view,
                        const std::vector<Request>& requests,
                        Tracer* tracer) {
  namespace q = nbtisim::query;
  ClientResult res;
  std::vector<std::string> responses;
  responses.reserve(requests.size());
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const Clock::time_point r0 = Clock::now();
    std::string response;
    if (tracer == nullptr) {
      if (req.cold) {
        const q::StoreView fresh(store_path);
        ++res.opens;
        response = q::handle_query(fresh, req.line, 1);
      } else {
        response = q::handle_query(view, req.line, 1);
      }
    } else {
      Tracer::Scope request(*tracer, "query.request", static_cast<int>(i));
      std::optional<q::StoreView> fresh;
      if (req.cold) {
        Tracer::Scope s(*tracer, "query.open");
        fresh.emplace(store_path);
        ++res.opens;
      }
      q::Query parsed;
      {
        Tracer::Scope s(*tracer, "query.parse");
        parsed = q::parse_query(json::parse(req.line));
      }
      q::QueryResult r;
      {
        Tracer::Scope s(*tracer, "query.eval");
        r = q::run_query(fresh ? *fresh : view, parsed, 1);
      }
      {
        Tracer::Scope s(*tracer, "query.render");
        response = envelope(r);
      }
      res.sums.index_entries += r.stats.index_entries;
      res.sums.rows_parsed += r.stats.rows_parsed;
      res.sums.rows_matched += r.stats.rows_matched;
      if (r.stats.rows_parsed > 0) {
        res.matched_of_parsed += r.stats.rows_matched;
      }
    }
    const double ms =
        1e3 * std::chrono::duration<double>(Clock::now() - r0).count();
    (req.cold ? res.cold_ms : res.warm_ms).push_back(ms);
    if (!req.cold) res.warm_ms_by_shape[req.shape].push_back(ms);
    responses.push_back(std::move(response));
  }
  res.wall_s = seconds_since(t0);
  res.cpu_s = process_cpu_s() - cpu0;
  // A digest of the per-response digests: no copy of the responses, which
  // would count towards the pass's peak RSS.
  std::string digests;
  for (const std::string& r : responses) {
    digests += nbtisim::campaign::fnv1a_hex(r);
  }
  res.digest = nbtisim::campaign::fnv1a_hex(digests);
  if (tracer != nullptr) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (q::handle_query(view, requests[i].line, 1) != responses[i]) {
        ++res.mismatches;
      }
    }
  }
  return res;
}

std::vector<std::pair<std::string, bool>> check_with_oracle(
    const std::string& store_path, const nbtisim::query::StoreView& view,
    const std::vector<Request>& requests, bool corrupt) {
  namespace q = nbtisim::query;
  std::vector<std::pair<std::string, bool>> out;
  for (const Request& req : requests) {
    const bool seen = std::any_of(out.begin(), out.end(), [&](const auto& c) {
      return c.first == req.shape;
    });
    if (seen) continue;
    const Value doc = json::parse(req.line);
    nbtisim::report::Table got =
        q::run_query(view, q::parse_query(doc), 1).table();
    if (corrupt && out.empty()) {
      if (got.rows.empty()) {
        got.headers.push_back("corrupt");
      } else {
        got.rows.front().front() += "?";
      }
    }
    const nbtisim::report::Table want =
        nbtisim::testsupport::reference_query(store_path, doc);
    out.emplace_back(req.shape, nbtisim::report::to_csv(got) ==
                                    nbtisim::report::to_csv(want));
  }
  return out;
}

}  // namespace perfbench
