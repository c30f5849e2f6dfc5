#include "opt/inc_insertion.h"

#include <algorithm>
#include <stdexcept>

#include "sim/simulator.h"
#include "sta/sta.h"

namespace nbtisim::opt {

IncInsertionResult insert_control_points(const aging::AgingAnalyzer& analyzer,
                                         const IncInsertionParams& params) {
  // Written so NaN fails too.
  if (params.max_control_points < 1 ||
      !(params.driver_delay_penalty >= 0.0)) {
    throw std::invalid_argument("insert_control_points: bad parameters");
  }
  const sta::StaEngine& sta = analyzer.sta();
  const netlist::Netlist& nl = sta.netlist();
  const aging::AgingConditions& cond = analyzer.conditions();

  // Baseline: aging under the all-zero standby vector, unmodified circuit.
  const std::vector<bool> zeros(nl.num_inputs(), false);
  const aging::DegradationReport base_rep =
      analyzer.analyze(aging::StandbyPolicy::from_vector(zeros));

  // Candidate ranking.
  const std::vector<bool> standby_values = sim::Simulator(nl).evaluate(zeros);
  const std::vector<double>& fresh_delays = analyzer.fresh_delays();
  const sta::TimingResult fresh_timing = sta.analyze(fresh_delays);
  const std::vector<double> slack = sta.slacks(fresh_timing, fresh_delays);
  const double horizon = std::max(fresh_timing.max_delay, 1e-30);

  struct Candidate {
    netlist::NodeId node;
    double score;
  };
  std::vector<Candidate> candidates;
  for (netlist::NodeId n = 0; n < nl.num_nodes(); ++n) {
    if (standby_values[n]) continue;  // already at 1 in standby
    const auto readers = nl.fanout_gates(n);
    if (readers.empty()) continue;
    // Benefit: critical readers relax. Cost: the driver slows; penalize
    // candidates whose driver has little slack to spare.
    double benefit = 0.0;
    for (int gi : readers) {
      const double s = slack[nl.gate(gi).output] / horizon;
      benefit += 1.0 / (1.0 + 50.0 * s);
    }
    const int driver = nl.driver_gate(n);
    if (driver >= 0) {
      const double driver_slack = slack[n];
      const double penalty_time =
          params.driver_delay_penalty * fresh_delays[driver];
      if (driver_slack < penalty_time) continue;  // would hurt timing
    }
    candidates.push_back(Candidate{n, benefit});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });

  // One trial: the forced-vector select on the analyzer, then two STA
  // passes over the delays scaled per modified driver: fresh × scale ×
  // Taylor factor, or the exact aged delay × scale.
  const tech::LibraryParams& lp = sta.library().params();
  std::vector<double> arrival_scratch;
  auto evaluate = [&](const aging::StandbyPolicy& policy,
                      const std::vector<double>& scale) {
    const std::vector<double> dvth = analyzer.gate_dvth(policy);
    std::vector<double> fresh = fresh_delays;
    std::vector<double> aged =
        cond.taylor_delay ? fresh : analyzer.aged_gate_delays(dvth);
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      fresh[gi] *= scale[gi];
      if (cond.taylor_delay) {
        const double offset =
            cond.gate_vth_offsets.empty() ? 0.0 : cond.gate_vth_offsets[gi];
        aged[gi] = fresh[gi] * aging::taylor_delay_factor(lp, dvth[gi],
                                                          offset, nl, gi);
      } else {
        aged[gi] *= scale[gi];
      }
    }
    aging::DegradationReport rep;
    rep.fresh_delay = sta.critical_delay(fresh, arrival_scratch);
    rep.aged_delay = sta.critical_delay(aged, arrival_scratch);
    return rep;
  };

  // Greedy accept-if-improves pass: forcing a net to 1 also flips
  // downstream nets to 0 (an inverter after a forced net becomes MORE
  // stressed), so static ranking is not enough — each candidate must prove
  // itself against the actual degradation. The delay penalty is paid on the
  // modified driver.
  IncInsertionResult result{.controlled = {},
                            .fresh_before = base_rep.fresh_delay,
                            .fresh_after = base_rep.fresh_delay,
                            .aging_before = base_rep.percent(),
                            .aging_after = base_rep.percent()};
  aging::StandbyPolicy policy = aging::StandbyPolicy::from_vector(zeros);
  std::vector<double> scale(nl.num_gates(), 1.0);

  const int pool = std::min<int>(static_cast<int>(candidates.size()),
                                 4 * params.max_control_points);
  for (int k = 0; k < pool; ++k) {
    if (static_cast<int>(result.controlled.size()) >=
        params.max_control_points) {
      break;
    }
    const netlist::NodeId n = candidates[k].node;
    aging::StandbyPolicy trial_policy = policy;
    trial_policy.forces.emplace_back(n, true);
    std::vector<double> trial_scale = scale;
    const int driver = nl.driver_gate(n);
    if (driver >= 0) trial_scale[driver] = 1.0 + params.driver_delay_penalty;
    const aging::DegradationReport rep = evaluate(trial_policy, trial_scale);
    if (rep.percent() < result.aging_after) {
      result.fresh_after = rep.fresh_delay;
      result.aging_after = rep.percent();
      policy = std::move(trial_policy);
      scale = std::move(trial_scale);
      result.controlled.push_back(n);
    }
  }
  return result;
}

}  // namespace nbtisim::opt
