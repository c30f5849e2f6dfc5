#include "opt/dual_vth.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sta/sta.h"

namespace nbtisim::opt {
namespace {

/// Dual-Vth critical delay when every gate with slack above \p threshold is
/// moved to high Vth. Returns the offsets via \p offsets.
double delay_with_threshold(const sta::StaEngine& sta, double temp_k,
                            const std::vector<double>& slack_of_gate,
                            double threshold, double high_offset,
                            std::vector<double>* offsets) {
  const int n = static_cast<int>(slack_of_gate.size());
  offsets->assign(n, 0.0);
  for (int gi = 0; gi < n; ++gi) {
    if (slack_of_gate[gi] > threshold) (*offsets)[gi] = high_offset;
  }
  return sta.analyze(sta.gate_delays(temp_k, {}, *offsets)).max_delay;
}

}  // namespace

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
  const double temp = low.conditions().sta_temperature;

  // Baseline timing and per-gate slack (slack of a gate = slack of its
  // output net under the all-low-Vth delays).
  const std::vector<double> low_delays = sta.gate_delays(temp);
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
  std::vector<double> offsets;
  // Try the all-eligible extreme first: threshold just below 0 moves every
  // positive-slack gate.
  if (delay_with_threshold(sta, temp, slack_of_gate, 0.0,
                           params.high_vth_offset, &offsets) > budget) {
    for (int iter = 0; iter < 40; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (delay_with_threshold(sta, temp, slack_of_gate, mid,
                               params.high_vth_offset, &offsets) > budget) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    // Final (feasible) assignment at the conservative end of the bracket.
    delay_with_threshold(sta, temp, slack_of_gate, hi, params.high_vth_offset,
                         &offsets);
  }

  DualVthResult r;
  r.gate_vth_offsets = offsets;
  for (double o : offsets) r.n_high += o > 0.0 ? 1 : 0;
  r.fresh_delay_low = low_timing.max_delay;
  r.fresh_delay_dual =
      sta.analyze(sta.gate_delays(temp, {}, offsets)).max_delay;

  // Leakage comparison at the standby temperature, all-zero inputs.
  const std::vector<bool> zeros(nl.num_inputs(), false);
  const leakage::LeakageAnalyzer leak_dual(nl, sta.library(),
                                           standby_leak.temperature(), offsets);
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
