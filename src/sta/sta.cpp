#include "sta/sta.h"

#include <algorithm>
#include <stdexcept>

namespace nbtisim::sta {

StaEngine::StaEngine(const netlist::Netlist& nl, const tech::Library& lib)
    : nl_(&nl), lib_(&lib), cells_(netlist::gate_cells(nl, lib)) {
  const std::vector<double> unit(nl.num_gates(), 1.0);
  loads_.resize(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) loads_[gi] = sized_load(gi, unit);
}

double StaEngine::sized_load(int gate_idx, std::span<const double> sizes,
                             int resized, double resized_size) const {
  if (static_cast<int>(sizes.size()) != nl_->num_gates()) {
    throw std::invalid_argument("StaEngine::sized_load: sizes size mismatch");
  }
  const double wire = lib_->params().wire_cap_per_fanout;
  const netlist::NodeId out = nl_->gate(gate_idx).output;
  double load = 0.0;
  for (int sink : nl_->fanout_gates(out)) {
    const netlist::Gate& sg = nl_->gate(sink);
    const double size = sink == resized ? resized_size : sizes[sink];
    for (std::size_t pin = 0; pin < sg.fanins.size(); ++pin) {
      if (sg.fanins[pin] == out) {
        load += lib_->input_cap(cells_[sink], static_cast<int>(pin)) * size +
                wire;
      }
    }
  }
  // Primary outputs see a nominal downstream load of one buffered pin.
  if (std::find(nl_->outputs().begin(), nl_->outputs().end(), out) !=
      nl_->outputs().end()) {
    load += lib_->input_cap(lib_->find("BUF"), 0) + wire;
  }
  return load;
}

std::vector<double> StaEngine::gate_delays(
    double temp_k, std::span<const double> pmos_dvth,
    std::span<const double> vth_offsets) const {
  if (!pmos_dvth.empty() &&
      static_cast<int>(pmos_dvth.size()) != nl_->num_gates()) {
    throw std::invalid_argument("StaEngine::gate_delays: dvth size mismatch");
  }
  if (!vth_offsets.empty() &&
      static_cast<int>(vth_offsets.size()) != nl_->num_gates()) {
    throw std::invalid_argument(
        "StaEngine::gate_delays: vth offset size mismatch");
  }
  std::vector<double> delays(nl_->num_gates());
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    const double dvth = pmos_dvth.empty() ? 0.0 : pmos_dvth[gi];
    const double offset = vth_offsets.empty() ? 0.0 : vth_offsets[gi];
    delays[gi] =
        lib_->cell_delay(cells_[gi], loads_[gi], temp_k, dvth, offset);
  }
  return delays;
}

namespace {

/// The fanin of \p g with the latest arrival: the first fanin, then any
/// later one whose arrival is >= the latest so far, so the last of equal
/// arrivals wins.  -1 for a fanin-less gate.
struct LatestFanin {
  double arrival = 0.0;
  netlist::NodeId node = -1;
};
LatestFanin latest_fanin(const netlist::Gate& g, const double* arrival) {
  LatestFanin latest;
  for (netlist::NodeId in : g.fanins) {
    if (arrival[in] >= latest.arrival || latest.node < 0) {
      latest = {arrival[in], in};
    }
  }
  return latest;
}

/// The forward pass of analyze() and critical_delay() into \p arrival, from
/// gate \p first_gate on; returns the critical primary output (the first
/// latest one, -1 for none).  At first_gate 0 the pass starts from zeroed
/// arrivals; past it, \p arrival already holds a pass's arrivals, and the
/// gates before first_gate keep theirs.
netlist::NodeId propagate(const netlist::Netlist& nl,
                          std::span<const double> gate_delay,
                          std::vector<double>& arrival, int first_gate) {
  if (static_cast<int>(gate_delay.size()) != nl.num_gates()) {
    throw std::invalid_argument("StaEngine: delay size mismatch");
  }
  if (first_gate == 0) {
    arrival.assign(nl.num_nodes(), 0.0);
  } else if (first_gate < 0 || first_gate > nl.num_gates() ||
             static_cast<int>(arrival.size()) != nl.num_nodes()) {
    throw std::invalid_argument(
        "StaEngine: first gate out of range or arrival size mismatch");
  }
  const std::span<const netlist::Gate> gates = nl.gates();
  for (std::size_t gi = first_gate; gi < gates.size(); ++gi) {
    // A fanin-less (constant-driver) gate launches at t = 0.
    arrival[gates[gi].output] =
        latest_fanin(gates[gi], arrival.data()).arrival + gate_delay[gi];
  }
  netlist::NodeId crit_po = -1;
  for (netlist::NodeId po : nl.outputs()) {
    if (crit_po < 0 || arrival[po] > arrival[crit_po]) crit_po = po;
  }
  return crit_po;
}

}  // namespace

TimingResult StaEngine::analyze(std::span<const double> gate_delay) const {
  TimingResult r;
  const netlist::NodeId crit_po = propagate(*nl_, gate_delay, r.arrival, 0);
  if (crit_po < 0) return r;
  r.max_delay = r.arrival[crit_po];
  // Walk the critical path back to a primary input, re-picking at each gate
  // the fanin the forward pass took.
  for (netlist::NodeId n = crit_po; n >= 0;) {
    r.critical_path.push_back(n);
    const int gi = nl_->driver_gate(n);
    n = gi < 0 ? -1 : latest_fanin(nl_->gate(gi), r.arrival.data()).node;
  }
  std::reverse(r.critical_path.begin(), r.critical_path.end());
  return r;
}

TimingResult StaEngine::analyze_fresh(double temp_k) const {
  return analyze(gate_delays(temp_k));
}

double StaEngine::critical_delay(std::span<const double> gate_delay,
                                 std::vector<double>& arrival_scratch,
                                 int first_gate) const {
  const netlist::NodeId crit_po =
      propagate(*nl_, gate_delay, arrival_scratch, first_gate);
  return crit_po < 0 ? 0.0 : arrival_scratch[crit_po];
}

std::vector<double> StaEngine::slacks(const TimingResult& timing,
                                      std::span<const double> gate_delay) const {
  if (static_cast<int>(gate_delay.size()) != nl_->num_gates()) {
    throw std::invalid_argument("StaEngine::slacks: delay size mismatch");
  }
  std::vector<double> required(nl_->num_nodes(), kUnconstrainedSlack);
  for (netlist::NodeId po : nl_->outputs()) required[po] = timing.max_delay;
  for (int gi = nl_->num_gates() - 1; gi >= 0; --gi) {
    const netlist::Gate& g = nl_->gate(gi);
    const double req_in = required[g.output] - gate_delay[gi];
    for (netlist::NodeId in : g.fanins) {
      required[in] = std::min(required[in], req_in);
    }
  }
  // Nets whose required time never tightened have no path to a primary
  // output: report them as unconstrained, not as zero-slack-critical.
  // (Gate delays are ~1e-9 s, twenty orders below the sentinel, so the
  // subtraction above is absorbed and the comparison stays exact.)
  std::vector<double> slack(nl_->num_nodes());
  for (int n = 0; n < nl_->num_nodes(); ++n) {
    slack[n] = required[n] >= kUnconstrainedSlack
                   ? kUnconstrainedSlack
                   : required[n] - timing.arrival[n];
  }
  return slack;
}

}  // namespace nbtisim::sta
