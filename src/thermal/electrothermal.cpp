#include "thermal/electrothermal.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/pool.h"

namespace nbtisim::thermal {

OperatingPoint solve_operating_point(const netlist::Netlist& nl,
                                     const tech::Library& lib,
                                     const RcThermalModel& model,
                                     const std::vector<bool>& standby_vector,
                                     const ElectrothermalParams& params) {
  // Every check is written so NaN fails too.
  auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("solve_operating_point: ") +
                                  what);
    }
  };
  require(std::isfinite(params.dynamic_power_w),
          "dynamic_power_w must be finite");
  require(std::isfinite(params.replication) && params.replication > 0.0,
          "replication must be finite and > 0");
  require(std::isfinite(params.supply_v) && params.supply_v > 0.0,
          "supply_v must be finite and > 0");
  require(std::isfinite(params.tolerance_k) && params.tolerance_k > 0.0,
          "tolerance_k must be finite and > 0");
  require(params.max_iterations >= 1, "max_iterations must be >= 1");
  require(std::isfinite(params.runaway_temp_k) && params.runaway_temp_k > 0.0,
          "runaway_temp_k must be finite and > 0");
  // Every later iterate adds leakage, so none is colder than this one.
  double temp = model.steady_state(params.dynamic_power_w);
  require(std::isfinite(temp) && temp > 0.0,
          "the starting iterate steady_state(dynamic_power_w) must be finite "
          "and > 0 K");

  // The standby state does not depend on temperature: simulate the vector
  // once and note which distinct (cell, input state) pair each gate reads.
  const std::vector<tech::CellId> cells = netlist::gate_cells(nl, lib);
  const std::vector<std::uint32_t> states =
      leakage::gate_input_states(nl, standby_vector);
  std::map<std::pair<tech::CellId, std::uint32_t>, int> pair_index;
  std::vector<int> pair_of_gate(cells.size());
  for (std::size_t gi = 0; gi < cells.size(); ++gi) {
    const int next = static_cast<int>(pair_index.size());
    pair_of_gate[gi] =
        pair_index.try_emplace({cells[gi], states[gi]}, next).first->second;
  }

  // Each iterate characterizes every pair once, with the call a
  // LeakageTable entry is made of, and adds the per-gate values in gate
  // order: bitwise LeakageAnalyzer(nl, lib, T).circuit_leakage(standby).
  std::vector<double> pair_leakage(pair_index.size());
  auto leakage_watts = [&](double temp_k) {
    for (const auto& [pair, k] : pair_index) {
      pair_leakage[k] = lib.cell_leakage(pair.first, pair.second, temp_k, 0.0);
    }
    double total = 0.0;
    for (int k : pair_of_gate) total += pair_leakage[k];
    return total * params.supply_v * params.replication;
  };

  OperatingPoint op;
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
