#include "variation/variation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "common/pool.h"
#include "common/quantile.h"
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

double DelayDistribution::quantile(double q) const {
  return common::empirical_quantile(delays, q);
}

MonteCarloAging::MonteCarloAging(const aging::AgingAnalyzer& analyzer,
                                 VariationParams params)
    : analyzer_(&analyzer), params_(params),
      law_(analyzer.sta().library().params()),
      ff_nominal_(nbti::field_factor(
          analyzer.conditions().rd, analyzer.sta().library().params().vdd,
          analyzer.sta().library().params().pmos.vth0)) {
  // Written so NaN fails too.
  if (params_.samples < 2) {
    throw std::invalid_argument("MonteCarloAging: samples must be >= 2");
  }
  if (!(std::isfinite(params_.sigma_vth) && params_.sigma_vth >= 0.0)) {
    throw std::invalid_argument(
        "MonteCarloAging: sigma_vth must be finite and >= 0");
  }
}

MonteCarloAging::Sample MonteCarloAging::draw(int s, bool aged) const {
  const int n_gates = analyzer_->sta().netlist().num_gates();
  const tech::LibraryParams& lp = analyzer_->sta().library().params();
  std::mt19937_64 rng(common::stream_seed(params_.seed, s));
  std::normal_distribution<double> gauss(0.0, params_.sigma_vth);
  Sample sample{std::vector<double>(n_gates),
                std::vector<double>(aged ? n_gates : 0)};
  for (int gi = 0; gi < n_gates; ++gi) {
    sample.offset[gi] = gauss(rng);
    if (aged) {
      // Low-Vth samples age faster: the field-factor ratio of eq. (23)
      // scales the nominal dVth — the variance-compensation mechanism.
      const double ff = nbti::field_factor(analyzer_->conditions().rd, lp.vdd,
                                           lp.pmos.vth0 + sample.offset[gi]);
      sample.dvth_scale[gi] = ff_nominal_ > 0.0 ? ff / ff_nominal_ : 1.0;
    }
  }
  return sample;
}

void MonteCarloAging::delays(const Sample& sample,
                             std::span<const double> nominal_dvth,
                             std::vector<double>& out) const {
  if (!nominal_dvth.empty() && sample.dvth_scale.empty()) {
    throw std::invalid_argument(
        "MonteCarloAging: a sample drawn fresh has no dVth scale");
  }
  const netlist::Netlist& nl = analyzer_->sta().netlist();
  const std::vector<double>& fresh = analyzer_->fresh_delays();
  out.resize(fresh.size());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const double shift =
        nominal_dvth.empty()
            ? sample.offset[gi]
            : sample.offset[gi] + nominal_dvth[gi] * sample.dvth_scale[gi];
    out[gi] = fresh[gi] * law_.factor(shift, nl, gi);
  }
}

DelayDistribution MonteCarloAging::distribution(
    std::span<const double> nominal_dvth) const {
  // Samples are independent streams writing disjoint slots: bit-identical
  // for every thread count.
  DelayDistribution dist;
  dist.delays.resize(params_.samples);
  common::parallel_for(params_.samples, [&](int s) {
    std::vector<double> gate_delay;
    delays(draw(s, !nominal_dvth.empty()), nominal_dvth, gate_delay);
    dist.delays[s] = analyzer_->sta().analyze(gate_delay).max_delay;
  });
  return dist;
}

DelayDistribution MonteCarloAging::fresh_distribution() const {
  return distribution({});
}

DelayDistribution MonteCarloAging::aged_distribution(
    const aging::StandbyPolicy& policy, double total_time) const {
  return distribution(analyzer_->gate_dvth(policy, total_time));
}

}  // namespace nbtisim::variation
