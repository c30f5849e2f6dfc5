/// \file ac_model.h
/// \brief Multicycle AC-stress NBTI model — paper Section 3.2, eqs. (7)-(12).
///
/// Under AC stress (alternating stress/recovery), the interface-trap growth
/// after n cycles is captured by the dimensionless sequence S_n:
///     S_1     = c^(1/4) / (1 + beta)                      (eq. 9)
///     S_{n+1} = S_n + c / (4 (1 + beta) S_n^3)            (eq. 10)
///     dVth(n) = K_v * S_n * tau^(1/4)                     (eqs. 11-12)
/// where c is the stress duty cycle, tau the cycle period, and
/// beta = sqrt((1 - c) / 2).
///
/// The recursion telescopes (S^4 grows by ~c/(1+beta) per cycle), so we also
/// provide a fast hybrid form: exact recursion for the first <=1024 cycles,
/// then the telescoped tail
///     S_n^4 ~= S_m^4 + (n - m) c / (1 + beta)
/// which is accurate to <0.2% and period-independent in the product
/// S_n * tau^(1/4) for large n — the property that makes the result depend
/// only on *total effective stress time*, not on the cycle chopping.
/// `bench_ablation_models` (a) quantifies the difference.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "nbti/rd_model.h"

namespace nbtisim::nbti {

/// One AC stress pattern: duty cycle (stress fraction) and period.
struct AcStress {
  double duty = 0.5;    ///< stress fraction of each cycle, in [0, 1]
  double period = 1.0;  ///< cycle period [s]
};

/// beta = sqrt((1 - c)/2) from eq. (8).
double ac_beta(double duty);

/// S_n by literal recursion of eqs. (9)-(10).
/// \throws std::invalid_argument for duty outside [0,1] or n < 1
double sn_exact(double duty, std::int64_t n_cycles);

/// S_n by the telescoped closed form (n_cycles may be fractional).
double sn_closed(double duty, double n_cycles);

/// Number of exact-recursion cycles at the head of sn_closed's hybrid
/// evaluation (see the file comment).
inline constexpr double kSnExactCycles = 1024.0;

/// The horizon-independent head of sn_closed for one duty cycle: the exact
/// S-recursion prefix at kSnExactCycles.  Sweeps that evaluate the same
/// stress pattern at many horizons (degradation series, lifetime search)
/// precompute this once and drop the O(kSnExactCycles) recursion from every
/// evaluation; sn_closed(prefix, n) is bit-identical to
/// sn_closed(prefix.duty, n) for every n.
struct SnPrefix {
  double duty = 0.0;
  double s = 0.0;     ///< S after kSnExactCycles cycles (0 for duty == 0)
  double step = 0.0;  ///< c / (4 (1 + beta))
};

/// The prefix of every duty in \p duties into \p out (same size).  The
/// recursions of 8 duties at a time run interleaved, each lane with the
/// operation sequence sn_exact and sn_closed use, so every prefix is bitwise
/// the one-duty result (sn_exact(duty, kSnExactCycles) for a duty above 0):
/// the lanes' dependent division chains overlap instead of each waiting out
/// the divider's latency alone.
/// \throws std::invalid_argument for a duty outside [0, 1] or a size
///         mismatch
void make_sn_prefixes(std::span<const double> duties, std::span<SnPrefix> out);

/// sn_closed via a precomputed prefix: O(1) for n_cycles >= kSnExactCycles,
/// falls back to the short exact recursion below it.
double sn_closed(const SnPrefix& prefix, double n_cycles);

/// Threshold shift after stressing for \p total_time under the AC pattern
/// \p stress at temperature \p temp_k with gate bias \p vgs on a device with
/// initial threshold \p vth  [V].
///
/// S_n comes from sn_closed.  Degenerate cases: duty == 0 -> 0; duty == 1
/// -> DC law.
double ac_delta_vth(const RdParams& p, double temp_k, const AcStress& stress,
                    double total_time, double vgs, double vth);

/// A literal alternating stress/recovery simulation using the DC growth law
/// (eq. 5, with equivalent-time restart) and the recovery law (eq. 6).
/// Used as an independent reference in tests and the recursion ablation:
/// it tracks the *upper envelope* of Fig. 1's AC curve.
///
/// Returns dVth after \p n_cycles [V].
double simulate_cycles(const RdParams& p, double temp_k, const AcStress& stress,
                       std::int64_t n_cycles, double vgs, double vth);

}  // namespace nbtisim::nbti
