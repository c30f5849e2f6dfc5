#include "thermal/electrothermal.h"

#include <cmath>
#include <stdexcept>

#include "common/pool.h"

namespace nbtisim::thermal {

OperatingPoint solve_operating_point(const netlist::Netlist& nl,
                                     const tech::Library& lib,
                                     const RcThermalModel& model,
                                     const std::vector<bool>& standby_vector,
                                     const ElectrothermalParams& params) {
  if (params.replication <= 0.0 || params.supply_v <= 0.0 ||
      params.tolerance_k <= 0.0 || params.max_iterations < 1 ||
      params.runaway_temp_k <= 0.0) {
    throw std::invalid_argument("solve_operating_point: bad parameters");
  }

  auto leakage_watts = [&](double temp_k) {
    const leakage::LeakageAnalyzer analyzer(nl, lib, temp_k);
    return analyzer.circuit_leakage(standby_vector) * params.supply_v *
           params.replication;
  };

  OperatingPoint op;
  double temp = model.steady_state(params.dynamic_power_w);
  // Damped fixpoint iteration: plain iteration diverges exactly when a
  // runaway is physically present, which is what we want to detect — so
  // use plain iteration with a divergence guard.
  for (int it = 0; it < params.max_iterations; ++it) {
    op.iterations = it + 1;
    const double p_leak = leakage_watts(temp);
    const double next =
        model.steady_state(params.dynamic_power_w + p_leak);
    if (!std::isfinite(next) || next > params.runaway_temp_k) {
      op.temperature_k = next;
      op.leakage_w = p_leak;
      op.converged = false;
      return op;
    }
    if (std::abs(next - temp) < params.tolerance_k) {
      op.temperature_k = next;
      op.leakage_w = p_leak;
      op.converged = true;
      return op;
    }
    temp = next;
  }
  op.temperature_k = temp;
  op.leakage_w = leakage_watts(temp);
  op.converged = false;
  return op;
}

std::vector<OperatingPoint> solve_operating_points(
    const netlist::Netlist& nl, const tech::Library& lib,
    const RcThermalModel& model, const std::vector<bool>& standby_vector,
    std::span<const double> dynamic_powers,
    const ElectrothermalParams& params) {
  std::vector<OperatingPoint> points(dynamic_powers.size());
  common::parallel_for(static_cast<int>(dynamic_powers.size()), [&](int i) {
    ElectrothermalParams cell = params;
    cell.dynamic_power_w = dynamic_powers[i];
    points[i] = solve_operating_point(nl, lib, model, standby_vector, cell);
  });
  return points;
}

}  // namespace nbtisim::thermal
