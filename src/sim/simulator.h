/// \file simulator.h
/// \brief Levelized 2-valued logic simulation, bit-parallel across 64
///        patterns per word.
///
/// Two roles in the paper's Fig. 6 flow:
///   - *standby*: "logic simulator is used to generate the voltage level of
///     each internal node" under a candidate minimum-leakage vector;
///   - *active*: Monte-Carlo estimation of per-node signal probabilities
///     ("derived statistically by simulating a large number of input
///     vectors", Section 3.3) and switching activities.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace nbtisim::sim {

/// Evaluates one gate function over scalar boolean fanins.
bool eval_gate(tech::GateFn fn, const std::vector<bool>& fanins);

/// Levelized simulator bound to one netlist.
class Simulator {
 public:
  explicit Simulator(const netlist::Netlist& nl) : nl_(&nl) {}

  const netlist::Netlist& netlist() const { return *nl_; }

  /// Evaluates every net for one primary-input assignment (by PI order).
  /// \throws std::invalid_argument if pi_values.size() != num_inputs
  std::vector<bool> evaluate(const std::vector<bool>& pi_values) const;

  /// As evaluate(), but with selected nets *forced* to fixed values during
  /// propagation (models control-point insertion: a forced net overrides
  /// its driver and the forced value propagates downstream).
  /// \throws std::invalid_argument on bad net ids
  std::vector<bool> evaluate_forced(
      const std::vector<bool>& pi_values,
      std::span<const std::pair<netlist::NodeId, bool>> forces) const;

  /// Bit-parallel evaluation: each word carries 64 independent patterns.
  /// \returns one word per net
  std::vector<std::uint64_t> evaluate_words(
      std::span<const std::uint64_t> pi_words) const;

  /// Values of the primary outputs only, in PO order.
  std::vector<bool> outputs(const std::vector<bool>& pi_values) const;

 private:
  const netlist::Netlist* nl_;
};

/// Per-net Monte-Carlo signal statistics over random active-mode vectors.
struct SignalStats {
  std::vector<double> probability;  ///< P(net = 1), indexed by NodeId
  std::vector<double> activity;     ///< P(net toggles between consecutive vectors)
  int n_vectors = 0;                ///< honored sample count (== requested)
};

/// Estimates signal probabilities / activities with exactly \p n_vectors
/// random patterns, where PI i is 1 with probability input_sp[i] (pass 0.5
/// everywhere for the paper's setup).  Internally bit-parallel in words of
/// 64 patterns; the unused bits of the final partial word are masked out,
/// so probabilities are exact fractions over \p n_vectors and activities
/// over the \p n_vectors - 1 consecutive-vector transitions.
///
/// The word stream is generated in fixed-size blocks, each from its own
/// counter-seeded RNG stream, and block results are reduced in block order —
/// so the result is deterministic for a fixed \p seed and *bit-identical
/// for every thread count* (the blocks fan out over common::parallel_for).
/// \throws std::invalid_argument on size mismatch or n_vectors < 1
SignalStats estimate_signal_stats(const netlist::Netlist& nl,
                                  std::span<const double> input_sp,
                                  int n_vectors, std::uint64_t seed);

}  // namespace nbtisim::sim
