/// \file query_client.h
/// \brief The benchmark's closed-loop query client: request shapes drawn
///        from a store's contents, the timed loop, and its checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "query/query.h"
#include "span.h"

namespace perfbench {

/// What a store holds, as far as request generation needs to know.
struct Universe {
  std::vector<std::string> hashes;
  std::vector<std::string> netlists;
  std::vector<double> t_standby;
  /// analysis -> scalar metric names (first-appearance order)
  std::map<std::string, std::vector<std::string>> metrics;
  /// "analysis|metric" -> (min, max) over finite values
  std::map<std::string, std::pair<double, double>> ranges;
  /// analysis -> name of its first structured (array/object) metric
  std::map<std::string, std::string> payloads;
};

Universe universe_of(const std::vector<const nbtisim::common::json::Value*>&
                         rows);

struct Request {
  std::string line;
  std::string shape;  ///< hash|filter|count|payload|range|meanby
  bool cold = false;  ///< answered from a freshly opened StoreView
};

/// \p mix gives each shape's share of the warm requests; shapes get exact
/// counts (not random draws), so a percentile lands in the same shape on
/// every seed. After every \p cold_every - 1 warm requests one cold request
/// follows, cycling through the cheap shapes.
std::vector<Request> make_requests(
    const Universe& u, const std::vector<std::pair<std::string, int>>& mix,
    int n_warm, int cold_every, std::uint64_t seed);

struct ClientResult {
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::map<std::string, std::vector<double>> warm_ms_by_shape;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string digest;  ///< FNV-1a of the responses' FNV-1a, in order
  nbtisim::query::QueryStats sums;  ///< traced runs only
  /// Rows matched by the requests that parsed rows (traced runs only): the
  /// numerator of the seek-and-parse layer's useful-work ratio.
  std::size_t matched_of_parsed = 0;
  int opens = 0;                    ///< StoreViews opened by the loop
  int mismatches = 0;  ///< traced runs: spliced != handle_query responses
};

/// Sends \p requests one after another; warm ones go to \p view, cold ones
/// to a fresh StoreView of \p store_path. With a tracer, each request calls
/// the layers one by one inside spans (parse, run, render) and the spliced
/// response is compared with handle_query()'s off the clock.
ClientResult run_client(const std::string& store_path,
                        const nbtisim::query::StoreView& view,
                        const std::vector<Request>& requests, Tracer* tracer);

/// Checks the first request of every shape against the full-rescan oracle.
/// With \p corrupt the first indexed answer is altered before comparing.
/// Returns one (shape, ok) per shape.
std::vector<std::pair<std::string, bool>> check_with_oracle(
    const std::string& store_path, const nbtisim::query::StoreView& view,
    const std::vector<Request>& requests, bool corrupt);

/// Nearest-rank quantile of \p v (copied and sorted).
double quantile(std::vector<double> v, double q);

/// Process CPU time (user + system, all threads) [s].
double process_cpu_s();

}  // namespace perfbench
