#include "opt/pareto.h"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>

#include "common/pool.h"

namespace nbtisim::opt {
namespace {

bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
  return a.leakage <= b.leakage &&
         a.degradation_percent <= b.degradation_percent &&
         (a.leakage < b.leakage ||
          a.degradation_percent < b.degradation_percent);
}

/// Maintains the non-dominated set; returns true if \p p was inserted.
bool insert_nondominated(std::vector<ParetoPoint>& front, ParetoPoint p) {
  for (const ParetoPoint& q : front) {
    if (dominates(q, p) || q.vector == p.vector) return false;
  }
  front.erase(std::remove_if(front.begin(), front.end(),
                             [&p](const ParetoPoint& q) {
                               return dominates(p, q);
                             }),
              front.end());
  front.push_back(std::move(p));
  return true;
}

}  // namespace

const ParetoPoint& ParetoResult::pick(double leakage_weight) const {
  if (leakage_weight < 0.0 || leakage_weight > 1.0) {
    throw std::invalid_argument("ParetoResult::pick: weight outside [0,1]");
  }
  if (front.empty()) throw std::logic_error("ParetoResult::pick: empty front");
  double leak_lo = front.front().leakage, leak_hi = leak_lo;
  double deg_lo = front.front().degradation_percent, deg_hi = deg_lo;
  for (const ParetoPoint& p : front) {
    leak_lo = std::min(leak_lo, p.leakage);
    leak_hi = std::max(leak_hi, p.leakage);
    deg_lo = std::min(deg_lo, p.degradation_percent);
    deg_hi = std::max(deg_hi, p.degradation_percent);
  }
  const double leak_span = std::max(leak_hi - leak_lo, 1e-30);
  const double deg_span = std::max(deg_hi - deg_lo, 1e-30);
  const ParetoPoint* best = &front.front();
  double best_cost = 1e30;
  for (const ParetoPoint& p : front) {
    const double cost =
        leakage_weight * (p.leakage - leak_lo) / leak_span +
        (1.0 - leakage_weight) * (p.degradation_percent - deg_lo) / deg_span;
    if (cost < best_cost) {
      best_cost = cost;
      best = &p;
    }
  }
  return *best;
}

ParetoResult pareto_standby_vectors(const aging::AgingAnalyzer& analyzer,
                                    const leakage::LeakageAnalyzer& standby_leak,
                                    const ParetoParams& params) {
  if (&analyzer.sta().netlist() != &standby_leak.netlist()) {
    throw std::invalid_argument(
        "pareto_standby_vectors: analyzers bound to different netlists");
  }
  if (params.random_samples < 2 || params.improve_rounds < 0 ||
      params.flips_per_member < 0) {
    throw std::invalid_argument("pareto_standby_vectors: bad parameters");
  }
  const int n_inputs = standby_leak.netlist().num_inputs();
  std::mt19937_64 rng(params.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  ParetoResult result;
  // Each candidate of a batch is an independent (leakage, aging) evaluation
  // writing its own slot; the non-dominated front is then folded serially in
  // generation order — the exact front evolution (and golden values) of the
  // original serial loop, bit-identical for every thread count.
  auto evaluate_batch = [&](std::vector<std::vector<bool>> batch) {
    std::vector<ParetoPoint> points(batch.size());
    common::parallel_for(static_cast<int>(batch.size()), [&](int i) {
      ParetoPoint& p = points[i];
      p.leakage = standby_leak.circuit_leakage(batch[i]);
      p.degradation_percent =
          analyzer.analyze(aging::StandbyPolicy::from_vector(batch[i]))
              .percent();
      p.vector = std::move(batch[i]);
    });
    for (ParetoPoint& p : points) {
      ++result.evaluated;
      insert_nondominated(result.front, std::move(p));
    }
  };

  // Seeds: all-zero, all-one, and random vectors — one batch.
  {
    std::vector<std::vector<bool>> batch;
    batch.reserve(params.random_samples + 2);
    batch.emplace_back(n_inputs, false);
    batch.emplace_back(n_inputs, true);
    for (int k = 0; k < params.random_samples; ++k) {
      std::vector<bool> v(n_inputs);
      for (int i = 0; i < n_inputs; ++i) v[i] = uni(rng) < 0.5;
      batch.push_back(std::move(v));
    }
    evaluate_batch(std::move(batch));
  }

  // Local search: random single-bit flips around front members — one batch
  // per round (flip positions are drawn before the batch runs, preserving
  // the serial implementation's RNG consumption order).
  for (int round = 0; round < params.improve_rounds; ++round) {
    const std::vector<ParetoPoint> snapshot = result.front;
    std::vector<std::vector<bool>> batch;
    batch.reserve(snapshot.size() * params.flips_per_member);
    for (const ParetoPoint& member : snapshot) {
      for (int f = 0; f < params.flips_per_member; ++f) {
        std::vector<bool> v = member.vector;
        const int bit = static_cast<int>(uni(rng) * n_inputs) % n_inputs;
        v[bit] = !v[bit];
        batch.push_back(std::move(v));
      }
    }
    evaluate_batch(std::move(batch));
  }

  std::sort(result.front.begin(), result.front.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              return a.leakage < b.leakage;
            });
  return result;
}

}  // namespace nbtisim::opt
