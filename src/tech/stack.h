/// \file stack.h
/// \brief Leakage solver for series transistor stacks (the "stacking effect").
///
/// Input vector control works because a CMOS gate's subthreshold and
/// gate-oxide leakage vary dramatically with the applied input vector
/// (paper Section 2.2, refs [34][35]).  The dominant physical cause is the
/// stacking effect: two or more series OFF transistors bias the internal
/// stack nodes such that the top device sees reverse Vgs, raised Vsb and
/// reduced Vds, suppressing leakage by an order of magnitude.
///
/// This module solves the DC operating point of a series stack by current
/// continuity and returns the stack leakage.  It is the engine behind the
/// per-(cell, input-vector) leakage lookup tables of Section 4.2.
///
/// ## Solver
///
/// ON devices collapse to shorts, leaving a chain of k OFF devices.  The
/// chain is solved by shooting: an outer bisection on the voltage v1 of the
/// node above the bottom device.  Each trial fixes the chain current from
/// the bottom device at v1, then walks up the chain with one bracketed 1-D
/// bisection per device for the drain voltage at which it carries that same
/// current.  If some device cannot carry it with its drain at the output,
/// or the top device carries less than it, v1 is too high; otherwise too
/// low.  Every node voltage rises with v1, so the last trials on either
/// side of v1 bracket each 1-D solve.  Both levels bisect until the bracket
/// is two adjacent doubles (at most 60 steps), so a solve costs
/// O(k * 60^2) device evaluations, where nested bisection (one 60-step
/// bisection per stacked device, each trial re-solving the chain above it)
/// costs O(60^(k-1)).  Device currents come only from tech/device.h.
#pragma once

#include <vector>

#include "tech/device.h"

namespace nbtisim::tech {

/// One transistor in a series stack, listed source-to-drain from the supply
/// rail end (GND for NMOS stacks, VDD for PMOS stacks) towards the output.
struct StackDevice {
  double width = 0.0;   ///< transistor width [m]
  bool gate_on = false; ///< true if the gate turns the device ON
  double delta_vth = 0.0;  ///< extra threshold shift (aging) [V]
};

/// Result of a stack DC solve.
struct StackSolution {
  double current = 0.0;              ///< leakage current through the stack [A]
  std::vector<double> node_voltages; ///< voltages of the nodes between
                                     ///< consecutive OFF devices, rail-relative,
                                     ///< rail end first; one fewer than the
                                     ///< OFF devices (empty for 0 or 1)
};

/// Relative bound within which solve_stack's current and node voltages agree
/// with nested bisection of the same chain (reference_solve_stack in
/// tests/support/reference.h).  Both solvers converge to within a few ulps
/// of the exact node voltages; over every library cell and vector at
/// 250-600 K and Vth offsets of -0.05..0.1 V the measured worst case is
/// below 1e-15 on the current and 1e-14 on the node voltages.
inline constexpr double kStackSolveRelTolerance = 1e-12;

/// Solves a series stack of same-channel devices between a rail and a node at
/// voltage \p vout (relative to the rail, positive, e.g. Vdd for an NMOS
/// stack below a logic-1 output).
///
/// \param params  channel device parameters (shared by all stack devices)
/// \param devices stack members ordered from rail to output
/// \param vout    |V| between output node and the rail [V]
/// \param vdd     supply voltage, used for ON-gate drive [V]
/// \param temp_k  temperature [K]
/// \throws std::invalid_argument for an empty stack, negative voltages, a
///         non-finite or non-positive \p temp_k, or a non-finite \p vout or
///         StackDevice::delta_vth
StackSolution solve_stack(const DeviceParams& params,
                          const std::vector<StackDevice>& devices, double vout,
                          double vdd, double temp_k);

/// Leakage of \p n_off identical OFF devices in parallel, each with full
/// \p vds across it (e.g. the NMOS bank of a NOR gate whose output is 1).
/// \param delta_vth extra threshold shift applied to every device [V]
double parallel_off_leakage(const DeviceParams& params, double width,
                            int n_off, double vds, double temp_k,
                            double delta_vth = 0.0);

}  // namespace nbtisim::tech
