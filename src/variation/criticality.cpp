#include "variation/criticality.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "common/pool.h"
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
  // The sampler checks samples and sigma_vth.
  const MonteCarloAging mc(analyzer, {.sigma_vth = params.sigma_vth,
                                      .samples = params.samples,
                                      .seed = params.seed});
  require(std::isfinite(params.total_time) && params.total_time >= 0.0,
          "total_time must be finite and >= 0");
  const sta::StaEngine& sta = analyzer.sta();
  const netlist::Netlist& nl = sta.netlist();

  std::vector<double> dvth_nominal;
  if (params.aged) {
    dvth_nominal = analyzer.gate_dvth(aging::StandbyPolicy::all_stressed(),
                                      params.total_time);
  }

  CriticalityResult result;
  std::vector<double> hits(nl.num_gates(), 0.0);
  std::set<netlist::NodeId> critical_pos;

  // Per-sample critical paths land in disjoint slots; the hit-count and
  // distinct-PO reductions then run serially in sample order, making the
  // result bit-identical for every thread count.
  std::vector<std::vector<netlist::NodeId>> sample_paths(params.samples);
  common::parallel_for(params.samples, [&](int s) {
    std::vector<double> delays;
    mc.delays(mc.draw(s, params.aged), dvth_nominal, delays);
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
