/// \file sta.h
/// \brief Static timing analysis over gate-level netlists.
///
/// Implements the paper's [44]-style STA: longest-path arrival propagation
/// over the circuit DAG with per-gate delays coming from the characterized
/// library, either fresh or with per-gate NBTI threshold shifts applied
/// ("A static timing analysis tool is used to compute the max delay of the
/// circuit with all the gates' temporal degradation information",
/// Section 3.3).
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "tech/library.h"

namespace nbtisim::sta {

/// Slack reported for nets with no combinational path to any primary
/// output (dangling logic).  Such nets are unconstrained — no spec applies
/// to them — so they carry effectively infinite slack; consumers that rank
/// or bracket by slack must treat values at or above this sentinel as
/// "always eligible" rather than as a real timing margin (see
/// assign_dual_vth).
inline constexpr double kUnconstrainedSlack = 1e30;

/// Result of one timing pass.
struct TimingResult {
  std::vector<double> arrival;  ///< per-net arrival time [s]
  double max_delay = 0.0;       ///< critical (longest) path delay [s]
  std::vector<netlist::NodeId> critical_path;  ///< nets from a PI to the
                                               ///< critical PO
};

/// STA engine bound to one netlist + library.
///
/// Loads are computed structurally once (sized_load at size 1); delay
/// vectors are cheap to recompute for different temperatures or aging
/// states, which is what the 10-year sweeps do.  analyze() and
/// critical_delay() run one forward pass, a gate's arrival being its latest
/// fanin's (the last one on ties, >=) plus its delay; critical_delay() can
/// start it at a later gate, and analyze() walks the critical path back,
/// re-picking that fanin from the final arrivals.
class StaEngine {
 public:
  /// \throws std::out_of_range if the netlist uses a (fn, fanin) combination
  ///         the library cannot map
  StaEngine(const netlist::Netlist& nl, const tech::Library& lib);

  const netlist::Netlist& netlist() const { return *nl_; }
  const tech::Library& library() const { return *lib_; }

  /// Cell implementing gate \p gate_idx.
  tech::CellId gate_cell(int gate_idx) const { return cells_.at(gate_idx); }

  /// Capacitive load on a gate's output [F].
  double gate_load(int gate_idx) const { return loads_.at(gate_idx); }

  /// Load on gate \p gate_idx's output [F] with sink gates upsized by
  /// \p sizes (gate \p resized, if >= 0, by \p resized_size): per sink pin
  /// in fanout order pin cap x size + wire cap, then the PO load.  At size
  /// 1 it is gate_load() bit for bit.  \throws std::invalid_argument when
  /// sizes has the wrong size
  double sized_load(int gate_idx, std::span<const double> sizes,
                    int resized = -1, double resized_size = 1.0) const;

  /// Per-gate delays at \p temp_k; \p pmos_dvth (optional, per gate) applies
  /// an NBTI threshold shift to the PMOS devices of each gate;
  /// \p vth_offsets (optional, per gate) shifts every transistor of each
  /// gate — the dual-Vth assignment hook.
  /// \throws std::invalid_argument on non-empty vectors with wrong size
  std::vector<double> gate_delays(double temp_k,
                                  std::span<const double> pmos_dvth = {},
                                  std::span<const double> vth_offsets = {}) const;

  /// Longest-path analysis with explicit per-gate delays.
  TimingResult analyze(std::span<const double> gate_delay) const;

  /// Critical delay only: analyze()'s forward pass into \p arrival_scratch,
  /// reused across calls, without the path walk.  Bit-identical to
  /// analyze(gate_delay).max_delay — the cheap kernel for sweeps that only
  /// need the scalar (derate tables, lifetime bisection, Pareto scoring).
  /// With \p first_gate > 0 the pass starts at that gate: \p arrival_scratch
  /// must then hold the arrivals of a pass whose delays equal \p gate_delay
  /// on every gate before it (a sizing trial's committed pass), and since
  /// the gate list is topological those gates keep their arrivals bitwise.
  /// Thread-safe for concurrent calls with distinct scratch vectors.
  /// \throws std::invalid_argument for a delay vector of the wrong size, a
  ///         first_gate outside [0, num_gates()], or with first_gate > 0 an
  ///         arrival vector of the wrong size
  double critical_delay(std::span<const double> gate_delay,
                        std::vector<double>& arrival_scratch,
                        int first_gate = 0) const;

  /// Convenience: fresh-silicon analysis at \p temp_k.
  TimingResult analyze_fresh(double temp_k) const;

  /// Per-net slack against the critical delay of \p timing.  Nets with no
  /// path to any primary output get kUnconstrainedSlack (they used to be
  /// reported as 0.0 — indistinguishable from truly critical nets, which
  /// falsely pinned dangling logic low-Vth in the dual-Vth pass).
  std::vector<double> slacks(const TimingResult& timing,
                             std::span<const double> gate_delay) const;

 private:
  const netlist::Netlist* nl_;
  const tech::Library* lib_;
  std::vector<tech::CellId> cells_;  // per gate
  std::vector<double> loads_;       // per gate
};

}  // namespace nbtisim::sta
