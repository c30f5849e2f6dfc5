/// \file quantile.h
/// \brief The one empirical quantile: the Monte-Carlo delay and lifetime
///        distributions (src/variation) and the query layer's "quantile"
///        aggregate all read it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace nbtisim::common {

/// Empirical quantile of \p samples at \p q in [0, 1]: the sorted samples,
/// linearly interpolated between adjacent ranks as lo·(1 − f) + hi·f.
/// \throws std::logic_error when \p samples is empty, and
///         std::invalid_argument (a logic_error too) when \p q is
///         non-finite or outside [0, 1]
inline double empirical_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::logic_error("quantile of empty samples");
  // Written so NaN fails too: it must never reach the index cast below.
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q must be finite and in [0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  const double idx = q * (samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - lo;
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace nbtisim::common
