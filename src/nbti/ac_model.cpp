#include "nbti/ac_model.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace nbtisim::nbti {
namespace {

void check_duty(double duty) {
  if (!(duty >= 0.0 && duty <= 1.0)) {  // NaN fails too
    throw std::invalid_argument("AC stress duty must lie in [0, 1]");
  }
}

/// Duties whose prefix recursions make_sn_prefixes runs interleaved: enough
/// independent division chains to keep the divider busy.
constexpr std::size_t kSnPrefixLanes = 8;

/// S_1 of eq. (9) and the eq. (10) step c / (4 (1 + beta)) of one duty.
struct SnHead {
  double s;
  double step;
};

SnHead sn_head(double duty) {
  const double beta = ac_beta(duty);
  return {std::pow(duty, 0.25) / (1.0 + beta), duty / (4.0 * (1.0 + beta))};
}

/// Advances W independent lanes from S_1 to S_cycles by eq. (10).  The one
/// S-recursion loop: sn_exact and sn_closed run it on one lane,
/// make_sn_prefixes on kSnPrefixLanes, and every lane performs the same
/// operations in the same order whatever W is.
template <std::size_t W>
void sn_recursion(double (&s)[W], const double (&step)[W],
                  std::int64_t cycles) {
  for (std::int64_t i = 1; i < cycles; ++i) {
    for (std::size_t l = 0; l < W; ++l) {
      s[l] += step[l] / (s[l] * s[l] * s[l]);
    }
  }
}

}  // namespace

double ac_beta(double duty) {
  check_duty(duty);
  return std::sqrt((1.0 - duty) / 2.0);
}

double sn_exact(double duty, std::int64_t n_cycles) {
  check_duty(duty);
  if (n_cycles < 1) throw std::invalid_argument("sn_exact: n_cycles < 1");
  if (duty == 0.0) return 0.0;
  const SnHead head = sn_head(duty);
  double s[1] = {head.s};
  const double step[1] = {head.step};
  sn_recursion(s, step, n_cycles);
  return s[0];
}

double sn_closed(double duty, double n_cycles) {
  check_duty(duty);
  if (n_cycles < 1.0) throw std::invalid_argument("sn_closed: n_cycles < 1");
  if (duty == 0.0) return 0.0;
  // Hybrid evaluation: run the exact recursion for the first cycles (where
  // the telescoped form's O(log n / n) error is visible), then telescope the
  // long tail where S^4 grows by 4*step per cycle to high accuracy.
  const SnHead head = sn_head(duty);
  double s[1] = {head.s};
  const double step[1] = {head.step};
  const std::int64_t iters =
      static_cast<std::int64_t>(std::min(n_cycles, kSnExactCycles));
  sn_recursion(s, step, iters);
  const double remaining = n_cycles - static_cast<double>(iters);
  if (remaining <= 0.0) return s[0];
  const double s4 = s[0] * s[0] * s[0] * s[0] + remaining * 4.0 * step[0];
  return quarter_root(s4);
}

void make_sn_prefixes(std::span<const double> duties,
                      std::span<SnPrefix> out) {
  if (out.size() != duties.size()) {
    throw std::invalid_argument("make_sn_prefixes: size mismatch");
  }
  for (std::size_t base = 0; base < duties.size(); base += kSnPrefixLanes) {
    const std::size_t used = std::min(kSnPrefixLanes, duties.size() - base);
    // Lanes past the end, and duty-0 lanes (no recursion: S == 0), run a
    // duty-1 stand-in whose result is dropped.
    double s[kSnPrefixLanes];
    double step[kSnPrefixLanes];
    for (std::size_t l = 0; l < kSnPrefixLanes; ++l) {
      const double duty = l < used ? duties[base + l] : 1.0;
      check_duty(duty);
      const SnHead head = sn_head(duty == 0.0 ? 1.0 : duty);
      s[l] = head.s;
      step[l] = head.step;
    }
    // Same operation sequence as sn_closed's head with n_cycles >=
    // kSnExactCycles — the bit-identity contract depends on it.
    sn_recursion(s, step, static_cast<std::int64_t>(kSnExactCycles));
    for (std::size_t l = 0; l < used; ++l) {
      SnPrefix& prefix = out[base + l];
      prefix = SnPrefix{};
      prefix.duty = duties[base + l];
      if (prefix.duty == 0.0) continue;
      prefix.s = s[l];
      prefix.step = step[l];
    }
  }
}

double sn_closed(const SnPrefix& prefix, double n_cycles) {
  if (n_cycles < 1.0) throw std::invalid_argument("sn_closed: n_cycles < 1");
  if (prefix.duty == 0.0) return 0.0;
  if (n_cycles < kSnExactCycles) {
    // Short horizons never reach the precomputed point; the recursion here
    // is as cheap as the prefix would be.
    return sn_closed(prefix.duty, n_cycles);
  }
  const double remaining = n_cycles - kSnExactCycles;
  if (remaining <= 0.0) return prefix.s;
  const double s4 =
      prefix.s * prefix.s * prefix.s * prefix.s + remaining * 4.0 * prefix.step;
  return quarter_root(s4);
}

double ac_delta_vth(const RdParams& p, double temp_k, const AcStress& stress,
                    double total_time, double vgs, double vth) {
  check_duty(stress.duty);
  if (!(stress.period > 0.0)) {  // NaN fails too
    throw std::invalid_argument("ac_delta_vth: period not > 0");
  }
  if (!(total_time >= 0.0)) {
    throw std::invalid_argument("ac_delta_vth: total time negative or NaN");
  }
  if (stress.duty == 0.0 || total_time == 0.0) return 0.0;
  if (stress.duty == 1.0) return dc_delta_vth(p, temp_k, total_time, vgs, vth);

  const double n = std::max(1.0, total_time / stress.period);
  const double sn = sn_closed(stress.duty, n);
  return kv_at(p, temp_k, vgs, vth) * sn * std::pow(stress.period, 0.25);
}

double simulate_cycles(const RdParams& p, double temp_k, const AcStress& stress,
                       std::int64_t n_cycles, double vgs, double vth) {
  check_duty(stress.duty);
  if (n_cycles < 0) throw std::invalid_argument("simulate_cycles: n < 0");
  const double kv = kv_at(p, temp_k, vgs, vth);
  if (kv <= 0.0 || stress.duty == 0.0) return 0.0;

  const double t_stress = stress.duty * stress.period;
  const double t_recover = (1.0 - stress.duty) * stress.period;
  double dvth = 0.0;
  double cumulative_stress = 0.0;
  for (std::int64_t i = 0; i < n_cycles; ++i) {
    // Stress phase: resume the DC t^(1/4) law from the equivalent time that
    // would have produced the current dVth.
    const double t0 = std::pow(dvth / kv, 4.0);
    cumulative_stress += t_stress;
    dvth = kv * std::pow(t0 + t_stress, 0.25);
    // Recovery phase (eq. 6), referenced to cumulative stress time.
    dvth *= recovery_factor(t_recover, cumulative_stress);
  }
  return dvth;
}

}  // namespace nbtisim::nbti
