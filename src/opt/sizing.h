/// \file sizing.h
/// \brief NBTI-aware gate sizing (the Paul et al. [22] baseline the paper
///        discusses in related work).
///
/// Instead of guard-banding the clock, upsize gates so the *aged* circuit
/// still meets timing at end-of-life. Upsizing a gate by factor s multiplies
/// its drive and its input capacitance by s: its own delay contribution
/// drops (it sees load/s), while its fanin drivers see a heavier load —
/// the classic TILOS trade-off. The optimizer runs a greedy loop:
///
///   while aged critical delay > spec:
///     upsize the gate on the aged critical path with the best
///     delay-improvement-per-area ratio
///
/// and reports the area overhead, comparable against plain guard-banding.
///
/// The inner loop evaluates every candidate move on the aged critical path
/// concurrently (common::parallel_for, each trial writing its own slot) and
/// folds the argmax serially in path order, so results are bit-identical for
/// every thread count — the same determinism contract as the MC/IVC/Pareto
/// layers.  A resize only changes the delays of the resized gate and of its
/// fanin drivers, so each trial patches just those entries into
/// SizedTiming's cached delay vector instead of rebuilding all num_gates()
/// delays, then prices the move with the arrival-only
/// StaEngine::critical_delay on per-thread scratch: a trial reads only its
/// critical delay.  The gate list is topological, so every gate before the
/// lowest patched one keeps its arrival from the committed pass, and the
/// trial's pass starts at that gate.  One full STA after each accepted move
/// yields the next round's critical path and committed arrivals.
/// tests/support/reference.h reference_size_for_lifetime (full rebuild +
/// full STA per trial) is the oracle tests/test_differential.cpp checks it
/// against.
///
/// Only upsizing a gate on the critical path can shorten that path, so the
/// candidates are exactly that path's drivers.  Widening them to a slack
/// window priced through an incremental STA picked the same moves, more
/// slowly on large DAGs (EXPERIMENTS.md "One sizing loop").
#pragma once

#include <span>
#include <vector>

#include "aging/aging.h"

namespace nbtisim::opt {

/// Sizing knobs.
struct SizingParams {
  double spec_margin_percent = 1.0;  ///< allowed aged delay over the fresh
                                     ///< nominal critical delay [%]
  double size_step = 0.25;           ///< multiplicative step added per move
  double max_size = 4.0;             ///< per-gate size cap
  int max_moves = 2000;              ///< greedy iteration cap
};

/// Result of the sizing loop.
struct SizingResult {
  std::vector<double> sizes;      ///< per-gate size factors (>= 1)
  double fresh_delay = 0.0;       ///< nominal all-1x critical delay [s]
  double spec = 0.0;              ///< timing spec the aged circuit must meet [s]
  double aged_before = 0.0;       ///< aged delay at all-1x [s]
  double aged_after = 0.0;        ///< aged delay after sizing [s]
  bool met = false;               ///< spec achieved
  int moves = 0;                  ///< upsizing moves applied
  int rounds = 0;                 ///< outer-loop rounds (== moves: one
                                  ///< move per round)

  /// Total area increase, with gate area proportional to size [%].
  double area_overhead_percent() const {
    if (sizes.empty()) return 0.0;
    double sum = 0.0;
    for (double s : sizes) sum += s;
    return 100.0 * (sum / sizes.size() - 1.0);
  }
  /// The guard-band a non-sized design would need instead [%].
  double guard_band_percent() const {
    return fresh_delay > 0.0 ? 100.0 * (aged_before / fresh_delay - 1.0) : 0.0;
  }
};

/// Sized-timing evaluator: per-gate size factors scale drive and input
/// capacitance together, so delay_g = cell_delay(load_g(sizes) / s_g) *
/// aging_factor_g with aging_factor from the per-gate dVth (paper eq. 22).
///
/// load_g is the STA's load sum, StaEngine::sized_load, and the delay law
/// the Taylor law of an analyzer without gate_vth_offsets, as every caller
/// uses it; so at all-1 sizes current_delays() is aged_gate_delays(dvth),
/// bitwise.
///
/// set_sizes() caches the delay vector once, and evaluate_resize() /
/// commit_resize() recompute only the affected gates (the resized gate,
/// whose drive changed, and its fanin drivers, whose load changed) — each
/// entry with the same expression in the same accumulation order as a full
/// rebuild, so the cached vector is bitwise what a rebuild would produce.
/// Query methods are const and safe to call concurrently for distinct
/// scratch vectors; commit_resize()/set_sizes() are not.
class SizedTiming {
 public:
  /// \p dvth is the per-gate worst-PMOS threshold shift (one entry per gate,
  /// e.g. AgingAnalyzer::gate_dvth).
  /// \throws std::invalid_argument when dvth size mismatches the netlist
  SizedTiming(const aging::AgingAnalyzer& analyzer,
              const std::vector<double>& dvth);

  /// (Re)initializes the cached sizes + delay vector.
  /// \throws std::invalid_argument on a size-vector length mismatch
  void set_sizes(std::vector<double> sizes);

  const std::vector<double>& current_sizes() const { return sizes_; }
  const std::vector<double>& current_delays() const { return delays_; }

  /// STA over the cached delay vector.
  sta::TimingResult analyze_current() const;

  /// Critical delay after resizing \p gate to \p new_size, without
  /// committing: copies the cached delays into \p delay_scratch and patches
  /// the affected entries, copies \p committed_arrival (the arrivals of
  /// analyze_current()) into \p arrival_scratch, and runs the arrival-only
  /// StaEngine::critical_delay from the lowest patched gate on: every gate
  /// before it keeps its delay and its arrival, so the result is bitwise
  /// analyze().max_delay over the patched delays.  Thread-safe for
  /// concurrent calls with distinct scratches.
  double evaluate_resize(int gate, double new_size,
                         std::span<const double> committed_arrival,
                         std::vector<double>& delay_scratch,
                         std::vector<double>& arrival_scratch) const;

  /// Applies the resize to the cached sizes + delay vector.
  void commit_resize(int gate, double new_size);

  const sta::StaEngine& sta() const { return *sta_; }

 private:
  /// Delay of gate \p gi under \p sizes, with gate \p resized (-1 for none)
  /// overridden to \p resized_size.  The single source of truth for every
  /// cached and trial delay above — sharing it is what keeps them bitwise
  /// equal to a full rebuild.
  double gate_delay(const std::vector<double>& sizes, int gi, int resized,
                    double resized_size) const;

  const sta::StaEngine* sta_;
  const tech::Library* lib_;
  double temp_;
  std::vector<double> aging_factor_;
  std::vector<std::vector<int>> affected_;
  std::vector<double> sizes_;
  std::vector<double> delays_;
};

/// Sizes \p analyzer's circuit so its aged delay (under \p policy, at the
/// analyzer's horizon) meets fresh_delay * (1 + spec_margin).
/// \throws std::invalid_argument naming the parameter for a non-finite or
///         out-of-range one
SizingResult size_for_lifetime(const aging::AgingAnalyzer& analyzer,
                               const aging::StandbyPolicy& policy,
                               const SizingParams& params = {});

}  // namespace nbtisim::opt
