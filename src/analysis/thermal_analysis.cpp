/// \file thermal_analysis.cpp
/// \brief "thermal": the electrothermal operating-point solver as a grid
///        analysis.
///
/// Solves the leakage/temperature fixpoint of a die of
/// Params::thermal_replication copies of the cell's circuit, with the
/// standby inputs held at the Params::standby vector (default all-0; the
/// policies "stressed" and "relaxed" name no vector and are rejected).
/// Consumes none of the shared Monte-Carlo knobs — the leakage state is a
/// deterministic logic evaluation — so its fingerprint carries only the
/// thermal fields, and sp_vectors/seed changes leave its store rows valid.

#include <cmath>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "thermal/electrothermal.h"

namespace nbtisim::analysis {
namespace {

class ThermalAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "thermal"; }

  std::string fingerprint(const Params& p) const override {
    std::string fp = "pw" + fmt_g(p.thermal_power) + ",rep" +
                     fmt_g(p.thermal_replication) + ",run" +
                     fmt_g(p.thermal_runaway_k);
    if (!p.standby.empty()) fp += ",sb" + p.standby;
    return fp;
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    const std::vector<bool> standby = standby_vector(ctx, p.standby);
    thermal::ElectrothermalParams ep;
    ep.dynamic_power_w = p.thermal_power;
    ep.replication = p.thermal_replication;
    ep.runaway_temp_k = p.thermal_runaway_k;
    const thermal::RcThermalModel model;
    const thermal::OperatingPoint op = thermal::solve_operating_point(
        ctx.netlist(), ctx.library(), model, standby, ep);
    // A runaway iterate can be +inf; clamp so the store row stays numeric.
    const double temp = std::isfinite(op.temperature_k)
                            ? op.temperature_k
                            : p.thermal_runaway_k;
    return {{"temp_k", temp},
            {"leakage_w", op.leakage_w},
            {"iterations", static_cast<double>(op.iterations)},
            {"converged", op.converged ? 1.0 : 0.0}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_thermal_analysis() {
  return std::make_unique<ThermalAnalysis>();
}

}  // namespace nbtisim::analysis
