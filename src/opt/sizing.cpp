#include "opt/sizing.h"

#include <algorithm>
#include <stdexcept>

#include "common/pool.h"
#include "sta/incremental.h"

namespace nbtisim::opt {

SizedTiming::SizedTiming(const aging::AgingAnalyzer& analyzer,
                         const std::vector<double>& dvth)
    : sta_(&analyzer.sta()), lib_(&sta_->library()),
      temp_(analyzer.conditions().sta_temperature) {
  const netlist::Netlist& nl = sta_->netlist();
  if (static_cast<int>(dvth.size()) != nl.num_gates()) {
    throw std::invalid_argument("SizedTiming: dvth size mismatch");
  }
  aging_factor_.resize(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    aging_factor_[gi] =
        aging::taylor_delay_factor(lib_->params(), dvth[gi], 0.0, nl, gi);
  }
  // Fanout structure: (sink gate, pin cap) per gate, plus constant load.
  const double wire = lib_->params().wire_cap_per_fanout;
  const double po_load = lib_->input_cap(lib_->find("BUF"), 0) + wire;
  sinks_.resize(nl.num_gates());
  fixed_load_.assign(nl.num_gates(), 0.0);
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::NodeId out = nl.gate(gi).output;
    for (int sink : nl.fanout_gates(out)) {
      const netlist::Gate& sg = nl.gate(sink);
      for (std::size_t pin = 0; pin < sg.fanins.size(); ++pin) {
        if (sg.fanins[pin] == out) {
          sinks_[gi].emplace_back(
              sink,
              lib_->input_cap(sta_->gate_cell(sink), static_cast<int>(pin)));
          fixed_load_[gi] += wire;
        }
      }
    }
    if (std::find(nl.outputs().begin(), nl.outputs().end(), out) !=
        nl.outputs().end()) {
      fixed_load_[gi] += po_load;
    }
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
  double load = fixed_load_[gi];
  for (const auto& [sink, cap] : sinks_[gi]) {
    load += cap * (sink == resized ? resized_size : sizes[sink]);
  }
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

sta::TimingResult SizedTiming::evaluate_resize(
    int gate, double new_size, std::vector<double>& scratch) const {
  scratch.assign(delays_.begin(), delays_.end());
  for (int a : affected_[gate]) {
    scratch[a] = gate_delay(sizes_, a, gate, new_size);
  }
  return sta_->analyze(scratch);
}

void SizedTiming::commit_resize(int gate, double new_size) {
  for (int a : affected_[gate]) {
    delays_[a] = gate_delay(sizes_, a, gate, new_size);
  }
  sizes_[gate] = new_size;
}

namespace {

/// Slack-aware multi-path sizing round loop (slack_window_percent > 0).
/// One resident IncrementalSta carries every trial and commit: a candidate
/// move is priced by patching its affected delays inside a checkpoint and
/// re-timing the dirty frontier, then rolled back — O(frontier) per trial
/// where the classic loop pays a full O(V + E) STA.  \p r arrives with
/// sizes / fresh_delay / spec filled in by size_for_lifetime.
SizingResult size_multi_path(const aging::AgingAnalyzer& analyzer,
                             SizedTiming& timing, const SizingParams& params,
                             SizingResult r) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  sta::IncrementalSta inc(analyzer.sta(), timing.current_delays());
  double aged_max = inc.max_delay();
  r.aged_before = aged_max;

  std::vector<int> candidates;
  std::vector<double> trial_max;
  std::vector<char> used(nl.num_gates(), 0);
  while (aged_max > r.spec && r.moves < params.max_moves) {
    // Candidate moves: any upsizable gate whose output net sits within the
    // slack window of the aged critical delay — every near-critical path
    // contributes, not just the single worst one.
    const std::vector<double>& slack = inc.slacks();
    const double window = aged_max * params.slack_window_percent / 100.0;
    candidates.clear();
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      if (r.sizes[gi] + params.size_step > params.max_size) continue;
      const double s = slack[nl.gate(gi).output];
      if (s >= sta::kUnconstrainedSlack || s > window) continue;
      candidates.push_back(gi);
    }
    if (candidates.empty()) break;

    // Price every candidate against the round's base state.
    trial_max.assign(candidates.size(), 0.0);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const int gi = candidates[i];
      const double new_size = r.sizes[gi] + params.size_step;
      inc.checkpoint();
      for (int a : timing.affected_gates(gi)) {
        inc.set_delay(a, timing.patched_delay(a, gi, new_size));
      }
      trial_max[i] = inc.max_delay();
      inc.rollback();
    }

    // Commit up to moves_per_round non-overlapping moves, best gain per
    // area step first (strict argmax, first-wins — the classic tie rule).
    // Overlapping affected sets would invalidate each other's patched
    // delays, so an already-touched gate disqualifies a candidate for the
    // rest of the round.
    std::fill(used.begin(), used.end(), 0);
    int committed = 0;
    for (int k = 0; k < params.moves_per_round && r.moves < params.max_moves;
         ++k) {
      int best = -1;
      double best_ratio = 0.0;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        bool overlaps = false;
        for (int a : timing.affected_gates(candidates[i])) {
          if (used[a]) {
            overlaps = true;
            break;
          }
        }
        if (overlaps) continue;
        const double gain = aged_max - trial_max[i];
        if (gain > 0.0 && gain / params.size_step > best_ratio) {
          best_ratio = gain / params.size_step;
          best = static_cast<int>(i);
        }
      }
      if (best < 0) break;
      const int gi = candidates[best];
      const double new_size = r.sizes[gi] + params.size_step;
      for (int a : timing.affected_gates(gi)) used[a] = 1;
      if (committed == 0) {
        // Priced against exactly the current state, so the positive gain
        // is exact: commit directly.  (patched_delay must run before
        // commit_resize updates the cached sizes; the committed delays are
        // bitwise the patched ones.)
        for (int a : timing.affected_gates(gi)) {
          inc.set_delay(a, timing.patched_delay(a, gi, new_size));
        }
        timing.commit_resize(gi, new_size);
        r.sizes[gi] = new_size;
        ++r.moves;
        ++committed;
        aged_max = inc.max_delay();
      } else {
        // Later moves were priced against the round's base; re-validate on
        // top of the moves already committed and keep only real wins.
        inc.checkpoint();
        for (int a : timing.affected_gates(gi)) {
          inc.set_delay(a, timing.patched_delay(a, gi, new_size));
        }
        const double new_max = inc.max_delay();
        if (new_max < aged_max) {
          inc.commit();
          timing.commit_resize(gi, new_size);
          r.sizes[gi] = new_size;
          ++r.moves;
          ++committed;
          aged_max = new_max;
        } else {
          inc.rollback();
        }
      }
    }
    if (committed == 0) break;
    ++r.rounds;
  }

  r.aged_after = aged_max;
  r.met = aged_max <= r.spec;
  return r;
}

}  // namespace

SizingResult size_for_lifetime(const aging::AgingAnalyzer& analyzer,
                               const aging::StandbyPolicy& policy,
                               const SizingParams& params) {
  if (params.spec_margin_percent < 0.0 || params.size_step <= 0.0 ||
      params.max_size < 1.0 || params.max_moves < 1 ||
      params.slack_window_percent < 0.0 || params.moves_per_round < 1) {
    throw std::invalid_argument("size_for_lifetime: bad parameters");
  }
  const netlist::Netlist& nl = analyzer.sta().netlist();
  const std::vector<double> dvth = analyzer.gate_dvth(policy);
  SizedTiming timing(analyzer, dvth);

  SizingResult r;
  r.sizes.assign(nl.num_gates(), 1.0);
  r.fresh_delay = analyzer.sta()
                      .analyze(analyzer.sta().gate_delays(
                          analyzer.conditions().sta_temperature))
                      .max_delay;
  r.spec = r.fresh_delay * (1.0 + params.spec_margin_percent / 100.0);

  if (params.slack_window_percent > 0.0) {
    return size_multi_path(analyzer, timing, params, std::move(r));
  }

  sta::TimingResult aged = timing.analyze_current();
  r.aged_before = aged.max_delay;

  std::vector<int> candidates;
  std::vector<sta::TimingResult> trials;
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
    trials.assign(candidates.size(), {});
    common::parallel_for(static_cast<int>(candidates.size()), [&](int i) {
      const int gi = candidates[i];
      std::vector<double> scratch;
      trials[i] = timing.evaluate_resize(gi, r.sizes[gi] + params.size_step,
                                         scratch);
    });

    int best = -1;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double gain = aged.max_delay - trials[i].max_delay;
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
    timing.commit_resize(gi, r.sizes[gi]);
    aged = std::move(trials[best]);
  }

  r.aged_after = aged.max_delay;
  r.met = aged.max_delay <= r.spec;
  return r;
}

}  // namespace nbtisim::opt
