#include "variation/criticality.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "common/pool.h"
#include "common/rng.h"
#include "nbti/rd_model.h"
#include "variation/variation.h"

namespace nbtisim::variation {

std::vector<int> CriticalityResult::critical_set(double threshold) const {
  std::vector<int> gates;
  for (int gi = 0; gi < static_cast<int>(probability.size()); ++gi) {
    if (probability[gi] >= threshold) gates.push_back(gi);
  }
  std::sort(gates.begin(), gates.end(), [this](int a, int b) {
    return probability[a] > probability[b];
  });
  return gates;
}

CriticalityResult gate_criticality(const aging::AgingAnalyzer& analyzer,
                                   const CriticalityParams& params) {
  // Every check is written so NaN fails too.
  auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("gate_criticality: ") + what);
    }
  };
  require(params.samples >= 2, "samples must be >= 2");
  require(std::isfinite(params.sigma_vth) && params.sigma_vth >= 0.0,
          "sigma_vth must be finite and >= 0");
  require(std::isfinite(params.total_time) && params.total_time >= 0.0,
          "total_time must be finite and >= 0");
  const sta::StaEngine& sta = analyzer.sta();
  const netlist::Netlist& nl = sta.netlist();
  const tech::LibraryParams& lp = sta.library().params();
  const nbti::RdParams& rd = analyzer.conditions().rd;

  const std::vector<double> fresh =
      sta.gate_delays(analyzer.conditions().sta_temperature);
  std::vector<double> dvth_nominal;
  if (params.aged) {
    dvth_nominal = analyzer.gate_dvth(aging::StandbyPolicy::all_stressed(),
                                      params.total_time);
  }
  const LinearizedDelay law(lp);
  const double ff_nominal = nbti::field_factor(rd, lp.vdd, lp.pmos.vth0);

  CriticalityResult result;
  std::vector<double> hits(nl.num_gates(), 0.0);
  std::set<netlist::NodeId> critical_pos;

  // Per-sample critical paths land in disjoint slots; the hit-count and
  // distinct-PO reductions then run serially in sample order, making the
  // result bit-identical for every thread count.
  std::vector<std::vector<netlist::NodeId>> sample_paths(params.samples);
  common::parallel_for(params.samples, [&](int s) {
    std::mt19937_64 rng(common::stream_seed(params.seed, s));
    std::normal_distribution<double> gauss(0.0, params.sigma_vth);
    std::vector<double> delays(nl.num_gates());
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      const double offset = gauss(rng);
      double dvth = 0.0;
      if (params.aged) {
        const double ff =
            nbti::field_factor(rd, lp.vdd, lp.pmos.vth0 + offset);
        dvth = dvth_nominal[gi] * (ff_nominal > 0.0 ? ff / ff_nominal : 1.0);
      }
      delays[gi] = fresh[gi] * law.factor(offset + dvth, nl, gi);
    }
    sample_paths[s] = sta.analyze(delays).critical_path;
  });
  for (const std::vector<netlist::NodeId>& path : sample_paths) {
    for (netlist::NodeId node : path) {
      const int gi = nl.driver_gate(node);
      if (gi >= 0) hits[gi] += 1.0;
    }
    if (!path.empty()) critical_pos.insert(path.back());
  }

  result.probability.resize(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    result.probability[gi] = hits[gi] / params.samples;
  }
  result.distinct_paths = static_cast<int>(critical_pos.size());
  return result;
}

}  // namespace nbtisim::variation
