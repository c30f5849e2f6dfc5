/// \file slew_sta.h
/// \brief Rise/fall- and slew-aware static timing analysis.
///
/// The scalar StaEngine models each gate with one delay number; real
/// signoff (and real NBTI analysis) needs more:
///   - separate rising/falling arrival times — an inverting gate's rising
///     output is launched by its *falling* input;
///   - transition-time (slew) propagation — a slow input edge slows the
///     receiving gate;
///   - NBTI asymmetry — a degraded PMOS slows only pull-up (rising-output)
///     arcs, so the aged critical path can differ from the fresh one and
///     the effective circuit-level degradation is roughly half of what a
///     both-edges model predicts (see bench_ablation_models (c)).
///
/// This engine propagates (arrival, slew) pairs per edge per net using the
/// library's analytic arc model (Library::cell_arc) and the cells'
/// unateness.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "sta/sta.h"
#include "tech/library.h"

namespace nbtisim::sta {

/// Result of a slew-aware timing pass.
struct SlewTimingResult {
  std::vector<double> arrival_rise;  ///< per-net rising arrival [s]
  std::vector<double> arrival_fall;  ///< per-net falling arrival [s]
  std::vector<double> slew_rise;     ///< per-net rising slew [s]
  std::vector<double> slew_fall;     ///< per-net falling slew [s]
  double max_delay = 0.0;            ///< worst PO arrival over both edges [s]
  netlist::NodeId critical_output = -1;
  tech::Library::Edge critical_edge = tech::Library::Edge::Rise;
};

/// Slew-aware STA engine bound to one netlist + library; each gate's cell
/// and load are its StaEngine's.
class SlewStaEngine {
 public:
  /// \param input_slew transition time applied at every primary input [s]
  /// \throws std::invalid_argument for non-positive input slew, and
  ///         std::out_of_range as StaEngine does
  SlewStaEngine(const netlist::Netlist& nl, const tech::Library& lib,
                double input_slew = 2.0e-11);

  const netlist::Netlist& netlist() const { return sta_.netlist(); }
  double input_slew() const { return input_slew_; }

  /// Full rise/fall propagation; \p pmos_dvth (optional, per gate) slows
  /// pull-up arcs only (NBTI); \p vth_offsets (optional, per gate) shifts
  /// every device (dual-Vth); \p nmos_dvth (optional, per gate) slows
  /// pull-down arcs only (PBTI/HCI).
  /// \throws std::invalid_argument on size mismatches
  SlewTimingResult analyze(double temp_k,
                           std::span<const double> pmos_dvth = {},
                           std::span<const double> vth_offsets = {},
                           std::span<const double> nmos_dvth = {}) const;

 private:
  double input_slew_;
  StaEngine sta_;
};

}  // namespace nbtisim::sta
