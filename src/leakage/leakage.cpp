#include "leakage/leakage.h"

#include <cmath>
#include <stdexcept>

namespace nbtisim::leakage {

std::vector<std::uint32_t> gate_input_states(
    const netlist::Netlist& nl, const std::vector<bool>& pi_values) {
  const std::vector<bool> value = sim::Simulator(nl).evaluate(pi_values);
  std::vector<std::uint32_t> states(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::Gate& g = nl.gate(gi);
    std::uint32_t bits = 0;
    for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
      bits |= value[g.fanins[pin]] ? (1u << pin) : 0u;
    }
    states[gi] = bits;
  }
  return states;
}

LeakageAnalyzer::LeakageAnalyzer(const netlist::Netlist& nl,
                                 const tech::Library& lib, double temp_k,
                                 std::vector<double> gate_vth_offsets)
    : LeakageAnalyzer(nl, lib,
                      std::make_shared<const tech::LeakageTable>(lib, temp_k),
                      std::move(gate_vth_offsets)) {}

LeakageAnalyzer::LeakageAnalyzer(
    const netlist::Netlist& nl, const tech::Library& lib,
    std::shared_ptr<const tech::LeakageTable> table,
    std::vector<double> gate_vth_offsets)
    : nl_(&nl), lib_(&lib), table_(std::move(table)),
      cells_(netlist::gate_cells(nl, lib)) {
  if (!table_ || table_->vth_offset() != 0.0) {
    throw std::invalid_argument(
        "LeakageAnalyzer: the shared table must be a nominal (zero-offset) "
        "table");
  }
  if (!gate_vth_offsets.empty()) {
    if (static_cast<int>(gate_vth_offsets.size()) != nl.num_gates()) {
      throw std::invalid_argument(
          "LeakageAnalyzer: gate_vth_offsets size mismatch");
    }
    table_of_gate_.assign(nl.num_gates(), -1);
    std::vector<double> distinct;
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      const double off = gate_vth_offsets[gi];
      if (off == 0.0) continue;
      int idx = -1;
      for (std::size_t k = 0; k < distinct.size(); ++k) {
        if (std::abs(distinct[k] - off) < 1e-9) {
          idx = static_cast<int>(k);
          break;
        }
      }
      if (idx < 0) {
        idx = static_cast<int>(distinct.size());
        distinct.push_back(off);
        extra_.emplace_back(lib, table_->temperature(), off);
      }
      table_of_gate_[gi] = idx;
    }
  }
}

const tech::LeakageTable& LeakageAnalyzer::table_for(int gate_idx) const {
  if (table_of_gate_.empty() || table_of_gate_[gate_idx] < 0) return *table_;
  return extra_[table_of_gate_[gate_idx]];
}

std::vector<double> LeakageAnalyzer::gate_leakage(
    const std::vector<bool>& pi_values) const {
  const std::vector<std::uint32_t> states =
      gate_input_states(*nl_, pi_values);
  std::vector<double> leak(nl_->num_gates());
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    leak[gi] = table_for(gi).leakage(cells_[gi], states[gi]);
  }
  return leak;
}

double LeakageAnalyzer::circuit_leakage(const std::vector<bool>& pi_values) const {
  double total = 0.0;
  for (double l : gate_leakage(pi_values)) total += l;
  return total;
}

double LeakageAnalyzer::expected_leakage(
    std::span<const double> node_sp) const {
  if (static_cast<int>(node_sp.size()) != nl_->num_nodes()) {
    throw std::invalid_argument("expected_leakage: SP size mismatch");
  }
  double total = 0.0;
  std::vector<double> pin_sp;
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    const netlist::Gate& g = nl_->gate(gi);
    pin_sp.clear();
    for (netlist::NodeId in : g.fanins) pin_sp.push_back(node_sp[in]);
    total += table_for(gi).expected_leakage(cells_[gi], pin_sp);
  }
  return total;
}

}  // namespace nbtisim::leakage
