#include "tech/stack.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "tech/units.h"

namespace nbtisim::tech {
namespace {

constexpr int kBisectIters = 60;

/// Current through one OFF device with source at \p vs and drain at \p vd
/// (rail-relative).  Gate is at the rail (0), so Vgs = -vs: a raised source
/// both reverse-biases the gate and adds body effect.
double off_device_current(const DeviceParams& p, const StackDevice& d,
                          double vs, double vd, double temp_k) {
  const double vds = vd - vs;
  if (vds <= 0.0) return 0.0;
  // vgs = 0 - vs  (gate tied to the rail for an off device)
  return subthreshold_current(p, d.width, -vs, vds, /*vsb=*/vs, temp_k,
                              d.delta_vth);
}

/// Bisects [\p lo, \p hi] for the point where \p above_root turns true;
/// stops early once the bracket is two adjacent doubles.
template <class AboveRoot>
double bisect(double lo, double hi, AboveRoot above_root) {
  for (int it = 0; it < kBisectIters; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    if (above_root(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// One shooting trial with the node above devs[0] at \p v1: devs[0] sets the
/// chain current, and each device above it gets the drain voltage at which
/// it carries that current, searched between that node's voltages in the
/// last trials below and above \p v1 (\p below, \p above).  Writes the
/// internal node voltages to \p nodes.  Returns true when \p v1 lies above
/// the solution: some device cannot carry the current with its drain at
/// \p vout, or the top device carries less.
bool overshoots(const DeviceParams& p, std::span<const StackDevice> devs,
                double v1, double vout, double temp_k,
                std::span<const double> below, std::span<const double> above,
                std::vector<double>& nodes) {
  const double current = off_device_current(p, devs[0], 0.0, v1, temp_k);
  const std::size_t top = devs.size() - 1;
  nodes[0] = v1;
  for (std::size_t j = 1; j < top; ++j) {
    const double vs = nodes[j - 1];
    if (off_device_current(p, devs[j], vs, vout, temp_k) <= current) {
      // The unsolved nodes get vout, an upper bound for every later trial.
      std::fill(nodes.begin() + static_cast<std::ptrdiff_t>(j), nodes.end(),
                vout);
      return true;
    }
    // The device current rises monotonically with its drain voltage.
    nodes[j] = bisect(std::max(vs, below[j]), above[j], [&](double vd) {
      return off_device_current(p, devs[j], vs, vd, temp_k) > current;
    });
  }
  return current > off_device_current(p, devs[top], nodes[top - 1], vout,
                                      temp_k);
}

}  // namespace

StackSolution solve_stack(const DeviceParams& params,
                          const std::vector<StackDevice>& devices, double vout,
                          double vdd, double temp_k) {
  if (devices.empty()) throw std::invalid_argument("solve_stack: empty stack");
  if (!std::isfinite(temp_k) || temp_k <= 0.0) {
    throw std::invalid_argument("solve_stack: temp_k must be finite and > 0");
  }
  if (!std::isfinite(vout)) {
    throw std::invalid_argument("solve_stack: vout must be finite");
  }
  if (vout < 0.0 || vdd <= 0.0) {
    throw std::invalid_argument("solve_stack: negative rail voltage");
  }
  (void)vdd;  // ON devices are collapsed; vdd kept for interface symmetry.

  // ON transistors in subthreshold-current regimes are effective shorts:
  // a device carrying nanoamps with full gate drive drops microvolts.
  // Collapse them and solve the series chain of OFF devices only.
  std::vector<StackDevice> off;
  off.reserve(devices.size());
  for (const StackDevice& d : devices) {
    if (!std::isfinite(d.delta_vth)) {
      throw std::invalid_argument("solve_stack: delta_vth must be finite");
    }
    if (!d.gate_on) off.push_back(d);
  }

  StackSolution sol;
  if (off.empty()) {
    // Fully conducting path: not a leakage state.  Callers only ask for
    // stacks on the non-conducting side; report zero leakage by convention.
    sol.current = 0.0;
    return sol;
  }
  if (off.size() == 1) {
    sol.current = off_device_current(params, off[0], 0.0, vout, temp_k);
    return sol;
  }
  // Bisect on the node above the bottom device: a trial below the solution
  // leaves the top device carrying more than the bottom one.  The last
  // trials on either side bracket the next trial's internal nodes.
  const std::size_t n_nodes = off.size() - 1;
  std::vector<double> below(n_nodes, 0.0), above(n_nodes, vout), trial(n_nodes);
  const double v1 = bisect(0.0, vout, [&](double mid) {
    const bool over =
        overshoots(params, off, mid, vout, temp_k, below, above, trial);
    (over ? above : below).swap(trial);
    return over;
  });
  sol.node_voltages.resize(n_nodes);
  overshoots(params, off, v1, vout, temp_k, below, above, sol.node_voltages);
  sol.current = off_device_current(params, off[0], 0.0, v1, temp_k);
  return sol;
}

double parallel_off_leakage(const DeviceParams& params, double width,
                            int n_off, double vds, double temp_k,
                            double delta_vth) {
  if (n_off <= 0) return 0.0;
  StackDevice d{width, /*gate_on=*/false, delta_vth};
  return static_cast<double>(n_off) *
         off_device_current(params, d, 0.0, vds, temp_k);
}

}  // namespace nbtisim::tech
