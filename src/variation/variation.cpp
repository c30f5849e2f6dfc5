#include "variation/variation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "common/pool.h"
#include "common/rng.h"
#include "nbti/rd_model.h"

namespace nbtisim::variation {

void LinearizedDelay::reject(double shift, double f,
                             const netlist::Netlist& nl, int gi) const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "threshold shift %g V gives delay factor %g; the linearized "
                "delay law needs a finite shift below Vdd - Vth0 = %g V and "
                "a positive factor",
                shift, f, overdrive_);
  throw std::domain_error("gate " + nl.node_name(nl.gate(gi).output) + ": " +
                          buf);
}

double DelayDistribution::mean() const {
  if (delays.empty()) return 0.0;
  double sum = 0.0;
  for (double d : delays) sum += d;
  return sum / delays.size();
}

double DelayDistribution::stddev() const {
  if (delays.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double d : delays) acc += (d - m) * (d - m);
  return std::sqrt(acc / (delays.size() - 1));
}

double empirical_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::logic_error("quantile of empty samples");
  // Written so NaN fails too: it must never reach the index cast below.
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q must be finite and in [0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  const double idx = q * (samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - lo;
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double DelayDistribution::quantile(double q) const {
  return empirical_quantile(delays, q);
}

MonteCarloAging::MonteCarloAging(const aging::AgingAnalyzer& analyzer,
                                 VariationParams params)
    : analyzer_(&analyzer), params_(params) {
  // Written so NaN fails too.
  if (params_.samples < 2) {
    throw std::invalid_argument("MonteCarloAging: samples must be >= 2");
  }
  if (!(std::isfinite(params_.sigma_vth) && params_.sigma_vth >= 0.0)) {
    throw std::invalid_argument(
        "MonteCarloAging: sigma_vth must be finite and >= 0");
  }
}

std::vector<double> MonteCarloAging::sample_offsets(std::uint64_t stream) const {
  const int n_gates = analyzer_->sta().netlist().num_gates();
  std::mt19937_64 rng(common::stream_seed(params_.seed, stream));
  std::normal_distribution<double> gauss(0.0, params_.sigma_vth);
  std::vector<double> offsets(n_gates);
  for (double& o : offsets) o = gauss(rng);
  return offsets;
}

DelayDistribution MonteCarloAging::fresh_distribution() const {
  const sta::StaEngine& sta = analyzer_->sta();
  const tech::LibraryParams& lp = sta.library().params();
  const std::vector<double> fresh =
      sta.gate_delays(analyzer_->conditions().sta_temperature);
  const LinearizedDelay law(lp);

  // Samples are independent streams writing disjoint slots: bit-identical
  // for every thread count.
  DelayDistribution dist;
  dist.delays.resize(params_.samples);
  common::parallel_for(params_.samples, [&](int s) {
    const std::vector<double> offsets = sample_offsets(s);
    std::vector<double> delays(fresh.size());
    for (std::size_t g = 0; g < fresh.size(); ++g) {
      delays[g] = fresh[g] * law.factor(offsets[g], sta.netlist(),
                                        static_cast<int>(g));
    }
    dist.delays[s] = sta.analyze(delays).max_delay;
  });
  return dist;
}

DelayDistribution MonteCarloAging::aged_distribution(
    const aging::StandbyPolicy& policy, double total_time) const {
  const sta::StaEngine& sta = analyzer_->sta();
  const tech::LibraryParams& lp = sta.library().params();
  const nbti::RdParams& rd = analyzer_->conditions().rd;
  const std::vector<double> fresh =
      sta.gate_delays(analyzer_->conditions().sta_temperature);
  const std::vector<double> dvth_nominal =
      analyzer_->gate_dvth(policy, total_time);
  const LinearizedDelay law(lp);
  const double ff_nominal = nbti::field_factor(rd, lp.vdd, lp.pmos.vth0);

  DelayDistribution dist;
  dist.delays.resize(params_.samples);
  common::parallel_for(params_.samples, [&](int s) {
    const std::vector<double> offsets = sample_offsets(s);
    std::vector<double> delays(fresh.size());
    for (std::size_t g = 0; g < fresh.size(); ++g) {
      // Low-Vth samples age faster: scale nominal dVth by the field-factor
      // ratio of eq. (23) — this is the variance-compensation mechanism.
      const double ff =
          nbti::field_factor(rd, lp.vdd, lp.pmos.vth0 + offsets[g]);
      const double dvth = dvth_nominal[g] * (ff_nominal > 0.0 ? ff / ff_nominal : 1.0);
      delays[g] = fresh[g] * law.factor(offsets[g] + dvth, sta.netlist(),
                                        static_cast<int>(g));
    }
    dist.delays[s] = sta.analyze(delays).max_delay;
  });
  return dist;
}

}  // namespace nbtisim::variation
