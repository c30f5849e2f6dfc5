/// \file aging.h
/// \brief Circuit-level NBTI degradation analysis — the paper's Fig. 6
///        platform (Sections 3.3 and 4.2).
///
/// Pipeline per gate:
///   active-mode signal probabilities (Monte-Carlo logic simulation)
///     -> per-PMOS stress duty cycles inside each cell,
///   standby-mode internal states (logic simulation of the standby vector,
///   or the all-stressed / all-relaxed bounding policies)
///     -> whether each PMOS continues to stress or recovers in standby,
///   temperature-aware device model -> per-PMOS dVth,
///   worst PMOS per gate -> gate delay degradation (eq. 21/22),
///   STA -> circuit delay degradation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "nbti/device_aging.h"
#include "nbti/dvth_table.h"
#include "nbti/rd_kernel.h"
#include "netlist/netlist.h"
#include "sim/simulator.h"
#include "sta/sta.h"
#include "sta/slew_sta.h"
#include "tech/library.h"

namespace nbtisim::aging {

/// How internal nodes behave during standby.
struct StandbyPolicy {
  enum class Kind : std::uint8_t {
    AllStressed,  ///< worst case: every PMOS gate node at 0 (paper's
                  ///< "all internal nodes 0" bounding assumption)
    AllRelaxed,   ///< best case: every PMOS gate node at 1 — also the state
                  ///< a sleep transistor forces (Vgs ~= 0 for all PMOS)
    Vector,       ///< apply a concrete standby input vector and simulate
    Rotating,     ///< alternate between several standby vectors across idle
                  ///< periods (Abella et al. [23]): each PMOS is stressed
                  ///< for the fraction of vectors that drive its gate to 0
  };

  Kind kind = Kind::AllStressed;
  std::vector<bool> vector;                 ///< PI values (Kind::Vector)
  std::vector<std::vector<bool>> rotation;  ///< PI vectors (Kind::Rotating)
  /// Nets forced to fixed values during the standby simulation — the effect
  /// of control-point insertion ([9], [10]); forced values propagate
  /// downstream. Applies to Vector and Rotating policies.
  std::vector<std::pair<netlist::NodeId, bool>> forces;

  static StandbyPolicy all_stressed() { return {Kind::AllStressed, {}, {}, {}}; }
  static StandbyPolicy all_relaxed() { return {Kind::AllRelaxed, {}, {}, {}}; }
  static StandbyPolicy from_vector(std::vector<bool> v) {
    return {Kind::Vector, std::move(v), {}, {}};
  }
  /// \throws std::invalid_argument when \p vectors is empty
  static StandbyPolicy rotating(std::vector<std::vector<bool>> vectors);

  /// Structural equality — the key of AgingAnalyzer's per-policy stress
  /// descriptor cache.
  friend bool operator==(const StandbyPolicy&, const StandbyPolicy&) = default;
};

/// Analysis knobs; defaults are the paper's experimental setup.
struct AgingConditions {
  nbti::ModeSchedule schedule =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  double total_time = 3.0e8;  ///< ~10 years
  nbti::RdParams rd{};
  nbti::AcEvalMethod method = nbti::AcEvalMethod::ClosedForm;
  bool taylor_delay = true;  ///< eq. 22 first-order form vs. exact
                             ///< alpha-power re-evaluation
  int sp_vectors = 4096;     ///< Monte-Carlo vectors for signal probabilities
  std::uint64_t seed = 7;
  double sta_temperature = 400.0;  ///< temperature for delay evaluation
  /// Per-primary-input probabilities of being 1 for the active-mode
  /// Monte-Carlo pass; empty = 0.5 everywhere (the paper's setup).  Size
  /// must match the netlist's PI count, values in [0, 1].
  std::vector<double> input_sp;
  /// Optional per-gate threshold offsets (a dual-Vth assignment): shifts
  /// every transistor of the gate, slowing it, cutting its leakage AND its
  /// NBTI rate (paper Section 4.1 "Vth dependence"). Empty = all nominal.
  std::vector<double> gate_vth_offsets;
  /// Optional per-gate delay multipliers (>= 1), e.g. the series-sleep-
  /// device penalty of a control-point-modified driver. Empty = all 1.
  std::vector<double> gate_delay_scale;
};

/// Aged/fresh delay ratio of gate \p gi under the first-order delay law of
/// paper eqs. (21)-(22): 1 + alpha * dVth / (Vdd - Vth0 - vth_offset). The
/// law is a Taylor expansion of the alpha-power delay and holds only while
/// the device still switches, dVth < Vdd - Vth0 - vth_offset: the point at
/// which the exact path's tech::Library::cell_arc throws as well.
/// \throws std::domain_error naming the gate's output net when \p dvth is
///         non-finite or not below that overdrive
double taylor_delay_factor(const tech::LibraryParams& lp, double dvth,
                           double vth_offset, const netlist::Netlist& nl,
                           int gi);

/// Full circuit degradation report.
struct DegradationReport {
  double fresh_delay = 0.0;  ///< [s]
  double aged_delay = 0.0;   ///< [s]
  std::vector<double> gate_dvth;  ///< worst-PMOS dVth per gate [V]

  double delta_delay() const { return aged_delay - fresh_delay; }
  double percent() const {
    return fresh_delay > 0.0 ? 100.0 * delta_delay() / fresh_delay : 0.0;
  }
};

/// NBTI degradation analyzer bound to one netlist (Fig. 6 platform).
class AgingAnalyzer {
 public:
  AgingAnalyzer(const netlist::Netlist& nl, const tech::Library& lib,
                AgingConditions cond = {});

  const AgingConditions& conditions() const { return cond_; }
  const sta::StaEngine& sta() const { return sta_; }
  const sim::SignalStats& signal_stats() const { return stats_; }

  /// Worst-PMOS dVth per gate after \p total_time (defaults to the
  /// configured horizon) under the given standby policy [V].
  ///
  /// Two-phase: per-gate/per-PMOS stress descriptors (standby-vector
  /// simulation + signal-probability propagation) are built once per
  /// distinct policy and cached; each call then only evaluates the device
  /// model against the cached descriptors through the SoA kernel
  /// (nbti::RdKernel), in parallel over gate chunks.  Repeated calls with
  /// different horizons — degradation_series in particular — skip the
  /// whole build phase.  tests/support/reference.h reference_gate_dvth is
  /// the per-device scalar oracle it is differential-tested against.
  std::vector<double> gate_dvth(const StandbyPolicy& policy,
                                std::optional<double> total_time = {}) const;

  /// Drops all cached per-policy stress descriptors and dVth tables.  Useful
  /// to reclaim memory after sweeping many distinct policies, and to
  /// benchmark the build phase itself (bench_perf_micro's "uncached" legs).
  void invalidate_stress_cache() const;

  /// Number of stress-descriptor build phases executed so far (cache misses).
  /// Sweeps and Monte-Carlo loops over one policy must keep this at one —
  /// the regression contract of the per-policy cache.
  std::uint64_t stress_build_count() const {
    return stress_builds_.load(std::memory_order_relaxed);
  }

  /// Sampled per-gate worst-PMOS dVth(t) curves of \p policy on a geometric
  /// grid from \p t_lo to \p t_hi (both exact nodes) at
  /// \p points_per_decade resolution — the interpolation substrate for the
  /// Monte-Carlo lifetime / failure crossing-time loops.  Built once per
  /// (policy, range, resolution) and cached like the stress descriptors;
  /// sampling goes through gate_dvth.  Tolerance:
  /// DvthTable::rel_error_bound(table->grid_ratio()) per single-device
  /// curve; see dvth_table.h.
  std::shared_ptr<const nbti::DvthTable> dvth_table(
      const StandbyPolicy& policy, double t_lo, double t_hi,
      int points_per_decade) const;

  /// Fresh critical delay [s] (gate_delay_scale applied) — precomputed once
  /// at construction; what analyze() reports as fresh_delay.
  double fresh_critical_delay() const { return fresh_critical_delay_; }

  /// Aged critical delay [s] under \p policy at \p total_time: the
  /// degradation_series inner step — cached stress descriptors + one device
  /// evaluation + one STA, without re-deriving the fresh baseline.  Sweeps
  /// over many horizons (derate tables, lifetime searches) should call this
  /// per cell instead of analyze().
  double aged_critical_delay(const StandbyPolicy& policy,
                             std::optional<double> total_time = {}) const;

  /// Full fresh-vs-aged timing comparison.
  DegradationReport analyze(const StandbyPolicy& policy,
                            std::optional<double> total_time = {}) const;

  /// Rise/fall- and slew-aware variant of analyze(): uses SlewStaEngine so
  /// the NBTI threshold shift slows *pull-up arcs only* — the physically
  /// correct asymmetry (the paper's eq. 22 attributes the whole gate delay
  /// to the degraded device; see bench_ablation_models (c)).
  /// gate_delay_scale is not applied in this mode.
  DegradationReport analyze_slew_aware(
      const StandbyPolicy& policy, std::optional<double> total_time = {}) const;

  /// (time, delay-degradation-percent) series for Fig. 5-style plots.
  std::vector<std::pair<double, double>> degradation_series(
      const StandbyPolicy& policy, double t_min, double t_max,
      int n_points) const;

  /// Aged gate delays from a per-gate dVth vector, honoring taylor_delay.
  std::vector<double> aged_gate_delays(std::span<const double> dvth) const;

 private:
  /// Build-once product of the pipeline's per-policy phase: every PMOS
  /// device's stress descriptor, flattened over gates.  Only the horizon
  /// argument of the device model varies between evaluations.
  struct StressDescriptors {
    StandbyPolicy policy;                      // cache key
    std::vector<int> gate_begin;               // size num_gates + 1
    /// SoA evaluator over every PMOS device's precomputed evaluation state
    /// (equivalent cycle, K_v, S_n prefix) under cond_.schedule, flattened
    /// over gates: makes each horizon O(1) per device.
    nbti::RdKernel kernel;
  };

  /// Returns the cached descriptors for \p policy, building them on miss.
  /// Thread-safe; the shared_ptr keeps an entry alive across eviction.
  std::shared_ptr<const StressDescriptors> stress_descriptors(
      const StandbyPolicy& policy) const;

  const netlist::Netlist* nl_;
  const tech::Library* lib_;
  AgingConditions cond_;
  sta::StaEngine sta_;
  sim::SignalStats stats_;
  std::vector<double> fresh_delays_;
  double fresh_critical_delay_ = 0.0;
  mutable std::mutex cache_mutex_;
  mutable std::vector<std::shared_ptr<const StressDescriptors>> stress_cache_;
  mutable std::atomic<std::uint64_t> stress_builds_{0};

  /// One cached dVth(t) table per (policy, range, resolution).
  struct TableEntry {
    StandbyPolicy policy;
    double t_lo = 0.0;
    double t_hi = 0.0;
    int points_per_decade = 0;
    std::shared_ptr<const nbti::DvthTable> table;
  };
  mutable std::vector<TableEntry> table_cache_;
};

}  // namespace nbtisim::aging
