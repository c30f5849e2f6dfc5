/// \file mlv.h
/// \brief Probability-based minimum-leakage-vector (MLV) set search —
///        paper Fig. 7.
///
/// Finding the exact MLV is NP-complete; the paper uses a probability-based
/// heuristic that iteratively reshapes a population of random vectors:
///   0. generate N random vectors;
///   1. keep vectors whose leakage is within a window of the set minimum;
///   2. per primary input, estimate P(input = 1) over the kept set;
///   3. generate new vectors from those probabilities;
///   4. update the kept set;
///   5. halt when every input probability saturates to ~0 or ~1.
/// The surviving set (leakage spread within ~4% of the minimum, Table 3) is
/// then ranked by NBTI impact by the IVC co-optimizer.
#pragma once

#include <cstdint>
#include <vector>

#include "leakage/leakage.h"

namespace nbtisim::opt {

/// Knobs of the Fig. 7 search.
struct MlvSearchParams {
  int population = 64;          ///< vectors generated per round
  double leakage_window = 0.04; ///< keep vectors within (1+w) * set minimum
  int max_rounds = 40;          ///< hard iteration cap
  double convergence_eps = 0.05;///< PI probability saturation threshold
  int max_set_size = 24;        ///< MLV set truncation (lowest leakage kept)
  std::uint64_t seed = 11;
};

/// Result of the MLV search.
struct MlvResult {
  std::vector<std::vector<bool>> vectors;  ///< MLV set, ascending leakage
  std::vector<double> leakages;            ///< matching leakage [A]
  std::vector<double> input_probabilities; ///< final per-PI P(1)
  int rounds = 0;
  bool converged = false;  ///< probabilities saturated before max_rounds

  double min_leakage() const { return leakages.empty() ? 0.0 : leakages.front(); }
};

/// Runs the probability-based MLV set selection of Fig. 7.
/// \throws std::invalid_argument for bad search parameters
MlvResult find_mlv_set(const leakage::LeakageAnalyzer& analyzer,
                       const MlvSearchParams& params = {});

/// Exhaustive MLV search (all 2^n vectors) for small circuits; used as the
/// ground truth in tests and the heuristic-quality ablation.  The 2^n
/// leakage evaluations fan out over common::parallel_for, with the usual
/// bit-identical-for-any-thread-count guarantee.
/// \throws std::invalid_argument when the circuit has more than 20 inputs
MlvResult find_mlv_exhaustive(const leakage::LeakageAnalyzer& analyzer,
                              double leakage_window = 0.04,
                              int max_set_size = 24);

}  // namespace nbtisim::opt
