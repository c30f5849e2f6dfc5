/// \file leakage.h
/// \brief Circuit-level standby/active leakage estimation (paper eq. 24).
///
/// Standby leakage under a candidate input vector: simulate the vector,
/// look up every gate's leakage in the per-vector table, sum.  Expected
/// active leakage: weight each gate's per-vector leakage by the joint
/// probability of its fanin states (independence assumption), i.e.
///   I_leakage(v) = sum_IN I_l(v, IN) * Prob(v, IN)      (eq. 24)
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "sim/simulator.h"
#include "tech/library.h"

namespace nbtisim::leakage {

/// Every gate's input state when the primary inputs hold \p pi_values: its
/// fanin values packed pin i = bit i, the entry of its cell's leakage row
/// that the gate reads.  One simulation of the vector, in gate order.
std::vector<std::uint32_t> gate_input_states(
    const netlist::Netlist& nl, const std::vector<bool>& pi_values);

/// Leakage estimator bound to (netlist, library, temperature).
class LeakageAnalyzer {
 public:
  /// Characterizes its own nominal table of \p lib at \p temp_k.
  /// \param gate_vth_offsets optional per-gate threshold offsets (dual-Vth
  ///        assignment); one extra lookup table is characterized per
  ///        distinct offset value
  LeakageAnalyzer(const netlist::Netlist& nl, const tech::Library& lib,
                  double temp_k, std::vector<double> gate_vth_offsets = {});

  /// Shares \p table, a nominal (zero-offset) table of \p lib, with every
  /// other analyzer holding it; the offset tables are characterized at its
  /// temperature.
  /// \throws std::invalid_argument for a null or offset \p table
  LeakageAnalyzer(const netlist::Netlist& nl, const tech::Library& lib,
                  std::shared_ptr<const tech::LeakageTable> table,
                  std::vector<double> gate_vth_offsets = {});

  double temperature() const { return table_->temperature(); }
  const tech::LeakageTable& table() const { return *table_; }
  /// The nominal table as the shared-table constructor takes it.
  std::shared_ptr<const tech::LeakageTable> shared_table() const {
    return table_;
  }
  const netlist::Netlist& netlist() const { return *nl_; }
  const tech::Library& library() const { return *lib_; }

  /// Per-gate leakage when the primary inputs hold \p pi_values [A].
  std::vector<double> gate_leakage(const std::vector<bool>& pi_values) const;

  /// Total circuit leakage under a static input vector [A]: the per-gate
  /// leakages summed in gate order.
  double circuit_leakage(const std::vector<bool>& pi_values) const;

  /// Expected leakage given per-net signal probabilities (eq. 24) [A].
  /// \p node_sp is indexed by NodeId (as produced by estimate_signal_stats).
  double expected_leakage(std::span<const double> node_sp) const;

 private:
  const tech::LeakageTable& table_for(int gate_idx) const;

  const netlist::Netlist* nl_;
  const tech::Library* lib_;
  std::shared_ptr<const tech::LeakageTable> table_;  // nominal-Vth table
  std::vector<tech::LeakageTable> extra_;    // one per distinct offset
  std::vector<int> table_of_gate_;           // -1 = nominal, else extra index
  std::vector<tech::CellId> cells_;
};

}  // namespace nbtisim::leakage
