#include "opt/ivc.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "common/pool.h"
#include "common/rng.h"

namespace nbtisim::opt {
namespace {

// Salt separating the random-reference streams of evaluate_ivc from the
// MLV search streams that share the same user seed.
constexpr std::uint64_t kRandomRefSalt = 0x495643726566ull;  // "IVCref"

}  // namespace

double IvcResult::mlv_spread_percent() const {
  if (candidates.empty()) return 0.0;
  auto [lo, hi] = std::minmax_element(
      candidates.begin(), candidates.end(),
      [](const IvcCandidate& a, const IvcCandidate& b) {
        return a.degradation_percent < b.degradation_percent;
      });
  return hi->degradation_percent - lo->degradation_percent;
}

IvcResult evaluate_ivc(const aging::AgingAnalyzer& analyzer,
                       const leakage::LeakageAnalyzer& standby_leak,
                       const MlvSearchParams& mlv_params, int n_random_ref) {
  if (&analyzer.sta().netlist() != &standby_leak.netlist()) {
    throw std::invalid_argument(
        "evaluate_ivc: aging and leakage analyzers bound to different "
        "netlists");
  }
  const netlist::Netlist& nl = standby_leak.netlist();

  IvcResult result;
  const MlvResult mlv = find_mlv_set(standby_leak, mlv_params);
  if (mlv.vectors.empty()) {
    throw std::logic_error("evaluate_ivc: MLV search produced no vectors");
  }
  // Each candidate is an independent AgingAnalyzer::analyze call (the
  // analyzer's stress-descriptor cache is thread-safe) writing its own
  // slot: bit-identical for every thread count.
  result.candidates.resize(mlv.vectors.size());
  common::parallel_for(static_cast<int>(mlv.vectors.size()), [&](int i) {
    IvcCandidate& cand = result.candidates[i];
    cand.vector = mlv.vectors[i];
    cand.leakage = mlv.leakages[i];
    cand.degradation_percent =
        analyzer.analyze(aging::StandbyPolicy::from_vector(cand.vector))
            .percent();
  });

  // Best member: minimum degradation; ties broken by lower leakage (the set
  // is already leakage-ascending, and std::min_element keeps the first).
  result.best_index = static_cast<int>(
      std::min_element(result.candidates.begin(), result.candidates.end(),
                       [](const IvcCandidate& a, const IvcCandidate& b) {
                         return a.degradation_percent < b.degradation_percent;
                       }) -
      result.candidates.begin());

  result.worst_case_percent =
      analyzer.analyze(aging::StandbyPolicy::all_stressed()).percent();
  result.best_case_percent =
      analyzer.analyze(aging::StandbyPolicy::all_relaxed()).percent();

  if (n_random_ref > 0) {
    // One SplitMix64-decorrelated stream per reference vector (salted away
    // from the MLV search streams), evaluated in parallel; the mean is
    // reduced in stream order.
    std::vector<double> ref_percent(n_random_ref);
    common::parallel_for(n_random_ref, [&](int k) {
      std::mt19937_64 rng(
          common::stream_seed(mlv_params.seed ^ kRandomRefSalt, k));
      std::uniform_int_distribution<int> bit(0, 1);
      std::vector<bool> v(nl.num_inputs());
      for (int i = 0; i < nl.num_inputs(); ++i) v[i] = bit(rng) != 0;
      ref_percent[k] =
          analyzer.analyze(aging::StandbyPolicy::from_vector(v)).percent();
    });
    double acc = 0.0;
    for (double p : ref_percent) acc += p;
    result.random_vector_percent = acc / n_random_ref;
  }
  return result;
}

AlternatingIvcResult evaluate_alternating_ivc(
    const aging::AgingAnalyzer& analyzer,
    const leakage::LeakageAnalyzer& standby_leak,
    const MlvSearchParams& mlv_params) {
  if (&analyzer.sta().netlist() != &standby_leak.netlist()) {
    throw std::invalid_argument(
        "evaluate_alternating_ivc: analyzers bound to different netlists");
  }
  const MlvResult mlv = find_mlv_set(standby_leak, mlv_params);
  if (mlv.vectors.empty()) {
    throw std::logic_error("evaluate_alternating_ivc: empty MLV set");
  }

  auto max_of = [](const std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m = std::max(m, x);
    return m;
  };

  AlternatingIvcResult r;
  r.n_vectors = static_cast<int>(mlv.vectors.size());

  // Best static member by circuit degradation: per-candidate analyses fan
  // out, the argmin scan stays in set order (first minimum wins, as before).
  std::vector<double> percent(mlv.vectors.size());
  common::parallel_for(static_cast<int>(mlv.vectors.size()), [&](int i) {
    percent[i] =
        analyzer.analyze(aging::StandbyPolicy::from_vector(mlv.vectors[i]))
            .percent();
  });
  double best_percent = 1e18;
  std::size_t best = 0;
  for (std::size_t i = 0; i < mlv.vectors.size(); ++i) {
    if (percent[i] < best_percent) {
      best_percent = percent[i];
      best = i;
    }
  }
  r.static_percent = best_percent;
  r.static_max_dvth = max_of(analyzer.gate_dvth(
      aging::StandbyPolicy::from_vector(mlv.vectors[best])));

  // Rotation across the whole set.
  const aging::StandbyPolicy rotation =
      aging::StandbyPolicy::rotating(mlv.vectors);
  r.rotating_percent = analyzer.analyze(rotation).percent();
  r.rotating_max_dvth = max_of(analyzer.gate_dvth(rotation));

  double leak_sum = 0.0;
  for (double l : mlv.leakages) leak_sum += l;
  r.mean_rotation_leakage = leak_sum / mlv.leakages.size();

  // Complement-pair rotation: best MLV alternated with its bitwise inverse.
  std::vector<bool> complement(mlv.vectors[best].size());
  for (std::size_t i = 0; i < complement.size(); ++i) {
    complement[i] = !mlv.vectors[best][i];
  }
  const aging::StandbyPolicy pair =
      aging::StandbyPolicy::rotating({mlv.vectors[best], complement});
  r.complement_percent = analyzer.analyze(pair).percent();
  r.complement_max_dvth = max_of(analyzer.gate_dvth(pair));
  r.complement_leakage = 0.5 * (mlv.leakages[best] +
                                standby_leak.circuit_leakage(complement));
  return r;
}

IncPotential internal_node_control_potential(
    const aging::AgingAnalyzer& analyzer) {
  IncPotential p;
  p.worst_percent =
      analyzer.analyze(aging::StandbyPolicy::all_stressed()).percent();
  p.best_percent =
      analyzer.analyze(aging::StandbyPolicy::all_relaxed()).percent();
  return p;
}

}  // namespace nbtisim::opt
