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
/// Every delay is timed at the schedule's T_active.  AgingAnalyzer::analyze
/// is the one aged-delay query, degradation_percent the one percent formula
/// and AgingAnalyzer::degradation_series the one time series.
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
#include "nbti/rd_kernel.h"
#include "netlist/netlist.h"
#include "sim/simulator.h"
#include "sta/sta.h"
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
  bool taylor_delay = true;  ///< eq. 22 first-order form vs. exact
                             ///< alpha-power re-evaluation
  int sp_vectors = 4096;     ///< Monte-Carlo vectors for signal probabilities
  std::uint64_t seed = 7;
  /// Per-primary-input probabilities of being 1 for the active-mode
  /// Monte-Carlo pass; empty = 0.5 everywhere (the paper's setup).  Size
  /// must match the netlist's PI count, values in [0, 1].
  std::vector<double> input_sp;
  /// Optional per-gate threshold offsets (a dual-Vth assignment): shifts
  /// every transistor of the gate, slowing it, cutting its leakage AND its
  /// NBTI rate (paper Section 4.1 "Vth dependence"). Empty = all nominal.
  std::vector<double> gate_vth_offsets;
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

/// Delay degradation of \p aged_delay over \p fresh_delay [%]; 0 when
/// \p fresh_delay is not positive.
inline double degradation_percent(double fresh_delay, double aged_delay) {
  return fresh_delay > 0.0 ? 100.0 * (aged_delay - fresh_delay) / fresh_delay
                           : 0.0;
}

/// Full circuit degradation report.
struct DegradationReport {
  double fresh_delay = 0.0;  ///< [s]
  double aged_delay = 0.0;   ///< [s]
  std::vector<double> gate_dvth;  ///< worst-PMOS dVth per gate [V]

  double delta_delay() const { return aged_delay - fresh_delay; }
  double percent() const {
    return degradation_percent(fresh_delay, aged_delay);
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

  /// One channel's devices under one standby policy, flattened over gates:
  /// every device's horizon-independent evaluation state (equivalent cycle,
  /// K_v, S_n prefix under conditions().schedule) packed into the SoA
  /// kernel, so each horizon is O(1) per device.
  struct StressSet {
    std::vector<int> gate_begin;  ///< CSR device offsets, size num_gates + 1
    nbti::RdKernel kernel;
  };

  /// Builds the stress of every \p channel device under \p policy from the
  /// standby-vector simulation and the signal probabilities inside each
  /// cell.  Every stage input drives one PMOS and one NMOS, so both
  /// channels list their devices in Cell::pmos_devices() order.  A PMOS
  /// (NBTI) is stressed while its gate signal is 0, an NMOS (PBTI) while it
  /// is 1; AllStressed holds every signal at 0 in standby and AllRelaxed
  /// every signal at 1.  The stresses are filled in parallel over gate
  /// chunks; the contexts come from one DeviceAging::make_contexts batch
  /// over all of them, which computes one S_n prefix per distinct duty of
  /// the set.  Not cached: gate_dvth keeps the PMOS sets of the two bounds
  /// and of each rotation (a vector selects between the bounds and needs no
  /// build), and the PBTI consumers build the NMOS set per call.
  /// \throws std::invalid_argument for a standby vector of the wrong width
  ///         or a Rotating policy with an empty rotation
  StressSet build_stress(const StandbyPolicy& policy,
                         tech::Channel channel) const;

  /// Worst-device dVth per gate of \p set after \p total_time [V]: the SoA
  /// kernel in parallel over gate chunks, each gate's maximum taken in slot
  /// order; bit-identical for every thread count.
  std::vector<double> worst_per_gate(const StressSet& set,
                                     double total_time) const;

  /// Worst-PMOS dVth per gate after \p total_time (defaults to the
  /// configured horizon) under the given standby policy [V].  The bounds
  /// and Rotating policies take worst_per_gate over the policy's PMOS
  /// stress set, built on the first call per distinct policy and cached, so
  /// repeated calls with different horizons — degradation_series in
  /// particular — skip the whole build phase.  A Vector policy (forces
  /// included) builds nothing: it holds every PMOS gate signal at exactly 0
  /// or 1 in standby, so each device's stress context is bitwise its
  /// AllStressed or its AllRelaxed one.  One standby simulation picks, per
  /// device, the cached bound its signal selects, evaluated at the horizon;
  /// the result is bitwise worst_per_gate(build_stress(policy, Pmos), t).
  /// tests/support/reference.h reference_gate_dvth is the per-device
  /// scalar oracle it is differential-tested against.
  /// \throws std::invalid_argument for a standby vector of the wrong width,
  ///         a bad force net id or an empty rotation
  std::vector<double> gate_dvth(const StandbyPolicy& policy,
                                std::optional<double> total_time = {}) const;

  /// Number of PMOS stress-descriptor builds so far: gate_dvth's cache
  /// misses, one per bound (AllStressed, AllRelaxed) and per distinct
  /// Rotating policy.  Vectors select between the bounds and add nothing,
  /// and build_stress calls made by others (the per-call NMOS sets) are not
  /// counted.  Sweeps and Monte-Carlo loops over one policy keep it at one,
  /// and a concurrent miss waits for the build in flight instead of
  /// repeating it — the regression contract of the per-policy cache.
  std::uint64_t stress_build_count() const {
    return stress_builds_.load(std::memory_order_relaxed);
  }

  /// Fresh per-gate delays [s] at the schedule's temp_active, computed
  /// once at construction: with gate_vth_offsets, those of the offset
  /// circuit that gate_dvth ages.  What the layers on an analyzer read.
  const std::vector<double>& fresh_delays() const { return fresh_delays_; }

  /// Fresh critical delay [s] — precomputed once at construction; what
  /// analyze() reports as fresh_delay.
  double fresh_critical_delay() const { return fresh_critical_delay_; }

  /// The one aged-delay query, which every layer above reads: fresh vs aged
  /// critical delay under \p policy at \p total_time (default: the horizon).
  /// The aged delay is one arrival-only STA pass (StaEngine::critical_delay)
  /// over aged_gate_delays(gate_dvth(policy, total_time)), so a sweep reuses
  /// the policy's cached stress descriptors at every horizon after its first.
  DegradationReport analyze(const StandbyPolicy& policy,
                            std::optional<double> total_time = {}) const;

  /// (time, analyze(policy, time).percent()) at \p n_points log-spaced
  /// times from \p t_min to \p t_max.  Fig. 11's gated logic is the
  /// all-relaxed series (opt::st_circuit_degradation_series), its ungated
  /// circuit the all-stressed one.
  /// \throws std::invalid_argument unless n_points >= 2 and
  ///         0 < t_min < t_max < inf
  std::vector<std::pair<double, double>> degradation_series(
      const StandbyPolicy& policy, double t_min, double t_max,
      int n_points) const;

  /// Aged gate delays from a per-gate dVth vector, honoring taylor_delay.
  std::vector<double> aged_gate_delays(std::span<const double> dvth) const;

 private:
  /// One cached PMOS stress set per policy, built once under its own flag.
  struct StressDescriptors {
    StandbyPolicy policy;  // cache key
    std::once_flag built;
    StressSet pmos;
  };

  /// Returns the cached PMOS set of \p policy, building it on miss.
  /// Thread-safe: a concurrent miss on the same policy waits for the build
  /// in flight.  Entries live as long as the analyzer.
  const StressSet& stress_descriptors(const StandbyPolicy& policy) const;

  /// worst_per_gate of \p set; with \p relaxed, the Vector select: a device
  /// whose gate signal is 1 under the standby net values \p standby takes
  /// its value from \p relaxed instead (\p set is then the AllStressed set).
  std::vector<double> worst_per_gate(const StressSet& set, double total_time,
                                     const StressSet* relaxed,
                                     const std::vector<bool>* standby) const;

  const netlist::Netlist* nl_;
  const tech::Library* lib_;
  AgingConditions cond_;
  sta::StaEngine sta_;
  sim::SignalStats stats_;
  std::vector<double> fresh_delays_;
  double fresh_critical_delay_ = 0.0;
  mutable std::mutex cache_mutex_;
  mutable std::vector<std::unique_ptr<StressDescriptors>> stress_cache_;
  mutable std::atomic<std::uint64_t> stress_builds_{0};
};

}  // namespace nbtisim::aging
