#include "opt/sizing.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/pool.h"

namespace nbtisim::opt {

SizedTiming::SizedTiming(const aging::AgingAnalyzer& analyzer,
                         const std::vector<double>& dvth)
    : sta_(&analyzer.sta()), lib_(&sta_->library()),
      temp_(analyzer.conditions().schedule.temp_active) {
  const netlist::Netlist& nl = sta_->netlist();
  if (static_cast<int>(dvth.size()) != nl.num_gates()) {
    throw std::invalid_argument("SizedTiming: dvth size mismatch");
  }
  aging_factor_.resize(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    aging_factor_[gi] =
        aging::taylor_delay_factor(lib_->params(), dvth[gi], 0.0, nl, gi);
  }
  // Resizing g changes g's own delay (drive) and the delays of the drivers
  // of g's fanin nets (their load includes cap * s_g).
  affected_.resize(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    std::vector<int>& aff = affected_[gi];
    aff.push_back(gi);
    for (netlist::NodeId fanin : nl.gate(gi).fanins) {
      const int d = nl.driver_gate(fanin);
      if (d >= 0 && std::find(aff.begin(), aff.end(), d) == aff.end()) {
        aff.push_back(d);
      }
    }
  }
  set_sizes(std::vector<double>(nl.num_gates(), 1.0));
}

double SizedTiming::gate_delay(const std::vector<double>& sizes, int gi,
                               int resized, double resized_size) const {
  const double load = sta_->sized_load(gi, sizes, resized, resized_size);
  const double s = gi == resized ? resized_size : sizes[gi];
  return lib_->cell_delay(sta_->gate_cell(gi), load / s, temp_) *
         aging_factor_[gi];
}

void SizedTiming::set_sizes(std::vector<double> sizes) {
  const int n_gates = sta_->netlist().num_gates();
  if (static_cast<int>(sizes.size()) != n_gates) {
    throw std::invalid_argument("SizedTiming: sizes size mismatch");
  }
  delays_.resize(n_gates);
  for (int gi = 0; gi < n_gates; ++gi) {
    delays_[gi] = gate_delay(sizes, gi, -1, 0.0);
  }
  sizes_ = std::move(sizes);
}

sta::TimingResult SizedTiming::analyze_current() const {
  return sta_->analyze(delays_);
}

double SizedTiming::evaluate_resize(int gate, double new_size,
                                   std::span<const double> committed_arrival,
                                   std::vector<double>& delay_scratch,
                                   std::vector<double>& arrival_scratch) const {
  delay_scratch.assign(delays_.begin(), delays_.end());
  int first = gate;
  for (int a : affected_[gate]) {
    delay_scratch[a] = gate_delay(sizes_, a, gate, new_size);
    first = std::min(first, a);
  }
  // Every gate before the first patched one keeps its delay, and so its
  // committed arrival: the pass starts there.
  arrival_scratch.assign(committed_arrival.begin(), committed_arrival.end());
  return sta_->critical_delay(delay_scratch, arrival_scratch, first);
}

void SizedTiming::commit_resize(int gate, double new_size) {
  for (int a : affected_[gate]) {
    delays_[a] = gate_delay(sizes_, a, gate, new_size);
  }
  sizes_[gate] = new_size;
}

SizingResult size_for_lifetime(const aging::AgingAnalyzer& analyzer,
                               const aging::StandbyPolicy& policy,
                               const SizingParams& params) {
  // Every check is written so NaN fails too.
  auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("size_for_lifetime: ") + what);
    }
  };
  require(std::isfinite(params.spec_margin_percent) &&
              params.spec_margin_percent >= 0.0,
          "spec_margin_percent must be finite and >= 0");
  require(std::isfinite(params.size_step) && params.size_step > 0.0,
          "size_step must be finite and > 0");
  require(std::isfinite(params.max_size) && params.max_size >= 1.0,
          "max_size must be finite and >= 1");
  require(params.max_moves >= 1, "max_moves must be >= 1");

  const netlist::Netlist& nl = analyzer.sta().netlist();
  const std::vector<double> dvth = analyzer.gate_dvth(policy);
  SizedTiming timing(analyzer, dvth);

  SizingResult r;
  r.sizes.assign(nl.num_gates(), 1.0);
  r.fresh_delay = analyzer.fresh_critical_delay();
  r.spec = r.fresh_delay * (1.0 + params.spec_margin_percent / 100.0);

  sta::TimingResult aged = timing.analyze_current();
  r.aged_before = aged.max_delay;

  std::vector<int> candidates;
  std::vector<double> trial_delay;
  while (aged.max_delay > r.spec && r.moves < params.max_moves) {
    // Candidate moves: upsize any gate driving a net on the aged critical
    // path; pick the best delay improvement per unit area.
    candidates.clear();
    for (netlist::NodeId node : aged.critical_path) {
      const int gi = nl.driver_gate(node);
      if (gi < 0) continue;
      if (r.sizes[gi] + params.size_step > params.max_size) continue;
      candidates.push_back(gi);
    }
    if (candidates.empty()) break;

    // Each trial writes only its own slot; the argmax folds serially in
    // path order below, so results are bit-identical for every thread count.
    // A trial needs only its critical delay, priced on per-thread scratch
    // from the committed arrivals.
    trial_delay.assign(candidates.size(), 0.0);
    common::parallel_for(static_cast<int>(candidates.size()), [&](int i) {
      thread_local std::vector<double> delay_scratch;
      thread_local std::vector<double> arrival_scratch;
      const int gi = candidates[i];
      trial_delay[i] =
          timing.evaluate_resize(gi, r.sizes[gi] + params.size_step,
                                 aged.arrival, delay_scratch, arrival_scratch);
    });

    int best = -1;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double gain = aged.max_delay - trial_delay[i];
      if (gain > 0.0 && gain / params.size_step > best_ratio) {
        best_ratio = gain / params.size_step;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;  // no improving move available
    const int gi = candidates[best];
    r.sizes[gi] += params.size_step;
    ++r.moves;
    ++r.rounds;
    // commit_resize writes the delays the winning trial patched, so this
    // pass reports its critical delay bit for bit, plus the path the next
    // round's candidates come from.
    timing.commit_resize(gi, r.sizes[gi]);
    aged = timing.analyze_current();
  }

  r.aged_after = aged.max_delay;
  r.met = aged.max_delay <= r.spec;
  return r;
}

}  // namespace nbtisim::opt
