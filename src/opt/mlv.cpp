#include "opt/mlv.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "common/pool.h"

namespace nbtisim::opt {
namespace {

/// Leakage-sorted candidate set with window/size pruning (the "MLV set").
class CandidateSet {
 public:
  CandidateSet(double window, int max_size)
      : window_(window), max_size_(max_size) {}

  void insert(std::vector<bool> v, double leak) {
    for (const std::vector<bool>& existing : vectors_) {
      if (existing == v) return;  // duplicate
    }
    const auto pos = std::upper_bound(leakages_.begin(), leakages_.end(), leak);
    const std::size_t idx = static_cast<std::size_t>(pos - leakages_.begin());
    leakages_.insert(pos, leak);
    vectors_.insert(vectors_.begin() + idx, std::move(v));
    prune();
  }

  const std::vector<std::vector<bool>>& vectors() const { return vectors_; }
  const std::vector<double>& leakages() const { return leakages_; }

  /// P(input i = 1) across the current set (Fig. 7 line 2).
  std::vector<double> input_probabilities(int n_inputs) const {
    std::vector<double> prob(n_inputs, 0.5);
    if (vectors_.empty()) return prob;
    for (int i = 0; i < n_inputs; ++i) {
      int ones = 0;
      for (const std::vector<bool>& v : vectors_) ones += v[i] ? 1 : 0;
      prob[i] = static_cast<double>(ones) / vectors_.size();
    }
    return prob;
  }

 private:
  void prune() {
    const double limit = leakages_.front() * (1.0 + window_);
    while (leakages_.size() > 1 &&
           (leakages_.back() > limit ||
            static_cast<int>(leakages_.size()) > max_size_)) {
      leakages_.pop_back();
      vectors_.pop_back();
    }
  }

  double window_;
  int max_size_;
  std::vector<std::vector<bool>> vectors_;
  std::vector<double> leakages_;
};

bool saturated(const std::vector<double>& prob, double eps) {
  return std::all_of(prob.begin(), prob.end(), [eps](double p) {
    return p <= eps || p >= 1.0 - eps;
  });
}

}  // namespace

MlvResult find_mlv_set(const leakage::LeakageAnalyzer& analyzer,
                       const MlvSearchParams& params) {
  if (params.population < 2 || params.max_rounds < 1 ||
      params.leakage_window < 0.0 || params.max_set_size < 1) {
    throw std::invalid_argument("find_mlv_set: bad parameters");
  }
  const int n_inputs = analyzer.netlist().num_inputs();
  std::mt19937_64 rng(params.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  CandidateSet set(params.leakage_window, params.max_set_size);
  std::vector<double> prob(n_inputs, 0.5);

  MlvResult result;
  std::vector<std::vector<bool>> batch(params.population);
  std::vector<double> batch_leak(params.population);
  for (int round = 0; round < params.max_rounds; ++round) {
    result.rounds = round + 1;
    // Generation stays on the single sequential RNG stream; the leakage
    // evaluations (the round's cost) fan out, and insertion runs in
    // generation order — the set evolves exactly as in the serial run.
    for (int k = 0; k < params.population; ++k) {
      std::vector<bool> v(n_inputs);
      for (int i = 0; i < n_inputs; ++i) v[i] = uni(rng) < prob[i];
      batch[k] = std::move(v);
    }
    common::parallel_for(params.population, [&](int k) {
      batch_leak[k] = analyzer.circuit_leakage(batch[k]);
    });
    for (int k = 0; k < params.population; ++k) {
      set.insert(std::move(batch[k]), batch_leak[k]);
    }
    prob = set.input_probabilities(n_inputs);
    if (saturated(prob, params.convergence_eps)) {
      result.converged = true;
      break;
    }
  }

  result.vectors = set.vectors();
  result.leakages = set.leakages();
  result.input_probabilities = prob;
  return result;
}

MlvResult find_mlv_exhaustive(const leakage::LeakageAnalyzer& analyzer,
                              double leakage_window, int max_set_size) {
  const int n_inputs = analyzer.netlist().num_inputs();
  if (n_inputs > 20) {
    throw std::invalid_argument(
        "find_mlv_exhaustive: too many inputs for exhaustive search");
  }
  // All 2^n leakages fan out (each vector is rebuilt from its index);
  // insertion then runs in index order, identical to the serial sweep.
  const int n_vectors = 1 << n_inputs;
  std::vector<double> leak(n_vectors);
  common::parallel_for(n_vectors, [&](int bits) {
    std::vector<bool> v(n_inputs);
    for (int i = 0; i < n_inputs; ++i) v[i] = (bits >> i) & 1;
    leak[bits] = analyzer.circuit_leakage(v);
  });
  CandidateSet set(leakage_window, max_set_size);
  for (int bits = 0; bits < n_vectors; ++bits) {
    std::vector<bool> v(n_inputs);
    for (int i = 0; i < n_inputs; ++i) v[i] = (bits >> i) & 1;
    set.insert(std::move(v), leak[bits]);
  }
  MlvResult result;
  result.vectors = set.vectors();
  result.leakages = set.leakages();
  result.input_probabilities = set.input_probabilities(n_inputs);
  result.rounds = 1;
  result.converged = true;
  return result;
}

}  // namespace nbtisim::opt
