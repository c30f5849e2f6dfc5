#include "opt/dual_vth.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sta/sta.h"

namespace nbtisim::opt {

DualVthResult assign_dual_vth(const aging::AgingAnalyzer& low,
                              const leakage::LeakageAnalyzer& standby_leak,
                              const DualVthParams& params) {
  // Written so NaN fails too.
  if (!(params.high_vth_offset > 0.0) ||
      !(params.delay_budget_percent >= 0.0)) {
    throw std::invalid_argument("assign_dual_vth: bad parameters");
  }
  const sta::StaEngine& sta = low.sta();
  const netlist::Netlist& nl = sta.netlist();
  if (&nl != &standby_leak.netlist() ||
      !low.conditions().gate_vth_offsets.empty()) {
    throw std::invalid_argument(
        "assign_dual_vth: needs all-low analyzers of one netlist");
  }

  // Baseline timing and per-gate slack (slack of a gate = slack of its
  // output net under the all-low-Vth delays).
  const std::vector<double>& low_delays = low.fresh_delays();
  const sta::TimingResult low_timing = sta.analyze(low_delays);
  const std::vector<double> node_slack = sta.slacks(low_timing, low_delays);
  std::vector<double> slack_of_gate(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    slack_of_gate[gi] = node_slack[nl.gate(gi).output];
  }

  const double budget =
      low_timing.max_delay * (1.0 + params.delay_budget_percent / 100.0);

  // Binary search the slack threshold: a lower threshold moves more gates
  // to high Vth and (monotonically) slows the circuit.  Unconstrained gates
  // (no path to a PO, slack = kUnconstrainedSlack) exceed every threshold
  // and therefore always go high-Vth — they must not stretch the bracket,
  // or 40 bisections over [0, 1e30] could not resolve nanosecond slacks.
  double lo = 0.0;
  double hi = 0.0;
  for (double s : slack_of_gate) {
    if (s < sta::kUnconstrainedSlack) hi = std::max(hi, s);
  }
  // A gate's delay depends only on its own offset, so each step picks every
  // gate's entry from the all-low or the all-high delay vector and prices
  // the assignment with one arrival-only STA pass.
  const std::vector<double> high_delays = sta.gate_delays(
      low.conditions().schedule.temp_active, {},
      std::vector<double>(nl.num_gates(), params.high_vth_offset));
  std::vector<double> delays(nl.num_gates());
  std::vector<double> arrival_scratch;
  // Critical delay with every gate of slack above threshold at high Vth.
  auto delay_with_threshold = [&](double threshold) {
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      delays[gi] =
          slack_of_gate[gi] > threshold ? high_delays[gi] : low_delays[gi];
    }
    return sta.critical_delay(delays, arrival_scratch);
  };
  // Try the all-eligible extreme first: threshold just below 0 moves every
  // positive-slack gate.
  double threshold = 0.0;
  double fresh_delay_dual = delay_with_threshold(threshold);
  if (fresh_delay_dual > budget) {
    for (int iter = 0; iter < 40; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (delay_with_threshold(mid) > budget) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    // Final (feasible) assignment at the conservative end of the bracket.
    threshold = hi;
    fresh_delay_dual = delay_with_threshold(threshold);
  }
  std::vector<double> offsets(nl.num_gates(), 0.0);
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    if (slack_of_gate[gi] > threshold) offsets[gi] = params.high_vth_offset;
  }

  DualVthResult r;
  r.gate_vth_offsets = offsets;
  for (double o : offsets) r.n_high += o > 0.0 ? 1 : 0;
  r.fresh_delay_low = low_timing.max_delay;
  r.fresh_delay_dual = fresh_delay_dual;

  // Leakage comparison at the standby temperature, all-zero inputs.
  const std::vector<bool> zeros(nl.num_inputs(), false);
  // The dual analyzer reads the all-low analyzer's nominal table and
  // characterizes only the high-Vth one.
  const leakage::LeakageAnalyzer leak_dual(
      nl, standby_leak.library(), standby_leak.shared_table(), offsets);
  r.leakage_low = standby_leak.circuit_leakage(zeros);
  r.leakage_dual = leak_dual.circuit_leakage(zeros);

  // Aging comparison under the worst-case standby policy.
  aging::AgingConditions cond_dual = low.conditions();
  cond_dual.gate_vth_offsets = offsets;
  const aging::AgingAnalyzer aging_dual(nl, sta.library(),
                                        std::move(cond_dual));
  r.aging_low_percent =
      low.analyze(aging::StandbyPolicy::all_stressed()).percent();
  r.aging_dual_percent =
      aging_dual.analyze(aging::StandbyPolicy::all_stressed()).percent();
  return r;
}

}  // namespace nbtisim::opt
