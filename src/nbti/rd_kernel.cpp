#include "nbti/rd_kernel.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nbtisim::nbti {
namespace {

/// lane_n marker for slots the DC pass finished: anything above
/// kSnExactCycles keeps the scalar fixup away from them.
constexpr double kDcLaneDone = static_cast<double>(kSnExactCycles) + 1.0;

/// The packed telescoped-tail sweep over \p count consecutive devices.  The
/// scalar path's n = max(1, q) is deliberately absent: every lane with
/// q <= kSnExactCycles (which includes all q < 1) is overwritten by the
/// caller's fixup pass, and above that threshold the max is an identity — a
/// float max here would reintroduce control flow GCC refuses to if-convert
/// under strict IEEE.  Lanes the formula does not cover produce garbage
/// (including sqrt(negative) -> NaN, well-defined) and are overwritten; what
/// matters is that this loop has no calls and no branches, so it compiles to
/// packed divisions and square roots.  Operation order mirrors
/// delta_vth(ctx, t) exactly.  A free function with restrict-qualified
/// parameters, not a member loop: the nine streams are distinct allocations,
/// and GCC only honors restrict on parameters — without it the runtime
/// alias-check count defeats the vectorizer.
void telescoped_lane(double total_time, int count,
                     const double* __restrict sched,
                     const double* __restrict eq,
                     const double* __restrict acp,
                     const double* __restrict s4b,
                     const double* __restrict step4,
                     const double* __restrict kv,
                     const double* __restrict pp, double* __restrict out,
                     double* __restrict lane_n) {
  for (int j = 0; j < count; ++j) {
    const double n_cycles = total_time / sched[j];
    const double total_equivalent = n_cycles * eq[j];
    const double q = total_equivalent / acp[j];
    const double s4 = s4b[j] + (q - kSnExactCycles) * step4[j];
    const double sn = quarter_root(s4);
    out[j] = kv[j] * sn * pp[j];
    lane_n[j] = q;
  }
}

}  // namespace

RdKernel::RdKernel(const DeviceAging& model,
                   std::vector<DeviceAging::StressContext> contexts)
    : model_(model), contexts_(std::move(contexts)),
      n_(static_cast<int>(contexts_.size())) {
  sched_period_.resize(n_);
  eq_period_.resize(n_);
  ac_period_.resize(n_);
  s4_base_.resize(n_);
  step4_.resize(n_);
  kv_.resize(n_);
  period_pow_.resize(n_);

  for (int i = 0; i < n_; ++i) {
    const DeviceAging::StressContext& ctx = contexts_[i];
    if (!ctx.always_zero && ctx.ac.duty >= 1.0) {
      // DC lane: delta_vth(ctx, t) short-circuits duty == 1 to
      // dc_delta_vth(params, temp, te, vgs, vth0) before the S_n
      // evaluation.
      dc_slot_.push_back(i);
      dc_sched_.push_back(ctx.schedule_period);
      dc_eq_.push_back(ctx.eq_period);
      dc_kv_.push_back(ctx.kv);
    }
    const bool formula_lane =
        !ctx.always_zero && ctx.ac.duty > 0.0 && ctx.ac.duty < 1.0;
    if (!formula_lane) {
      // Benign fills: the lane computes n == 0, which routes the device to
      // the scalar fixup pass unconditionally (and divides by nothing).
      sched_period_[i] = 1.0;
      eq_period_[i] = 0.0;
      ac_period_[i] = 1.0;
      s4_base_[i] = 1.0;
      step4_[i] = 0.0;
      kv_[i] = 0.0;
      period_pow_[i] = 0.0;
      continue;
    }
    sched_period_[i] = ctx.schedule_period;
    eq_period_[i] = ctx.eq_period;
    ac_period_[i] = ctx.ac.period;
    // The scalar tail evaluates prefix.s * prefix.s * prefix.s * prefix.s
    // left-to-right per call; the same expression precomputed once is the
    // identical double.
    s4_base_[i] = ctx.prefix.s * ctx.prefix.s * ctx.prefix.s * ctx.prefix.s;
    // remaining * 4.0 * step and remaining * (4.0 * step) round identically:
    // the power-of-two scaling is exact, so both are one rounding of the
    // same real product.
    step4_[i] = 4.0 * ctx.prefix.step;
    kv_[i] = ctx.kv;
    period_pow_[i] = ctx.period_pow;
  }
}

void RdKernel::delta_vth(double total_time, int dev_lo, int dev_hi,
                         std::span<double> out,
                         std::span<double> scratch) const {
  if (dev_lo < 0 || dev_hi < dev_lo || dev_hi > n_) {
    throw std::invalid_argument("RdKernel: bad device range");
  }
  if (!(total_time >= 0.0)) {  // NaN fails too
    throw std::invalid_argument("RdKernel: total time negative or NaN");
  }
  if (static_cast<int>(out.size()) < n_ ||
      static_cast<int>(scratch.size()) < n_) {
    throw std::invalid_argument("RdKernel: device buffer too small");
  }
  if (dev_lo == dev_hi) return;
  double* const lane_out = out.data() + dev_lo;
  double* const lane_n = scratch.data() + dev_lo;
  telescoped_lane(total_time, dev_hi - dev_lo, sched_period_.data() + dev_lo,
                  eq_period_.data() + dev_lo, ac_period_.data() + dev_lo,
                  s4_base_.data() + dev_lo, step4_.data() + dev_lo,
                  kv_.data() + dev_lo, period_pow_.data() + dev_lo, lane_out,
                  lane_n);
  // DC pass: duty == 1 slots in range, mirroring the scalar short-circuit
  // kv * quarter_root((t / sched) * eq) (zero equivalent time folds in as
  // kv * 0.0 == +0.0, the scalar early-out value).  Marks the slots so the
  // fixup below leaves them alone.
  {
    const auto lo = std::lower_bound(dc_slot_.begin(), dc_slot_.end(), dev_lo);
    const auto hi = std::lower_bound(dc_slot_.begin(), dc_slot_.end(), dev_hi);
    for (auto it = lo; it != hi; ++it) {
      const auto k = static_cast<std::size_t>(it - dc_slot_.begin());
      const double te = (total_time / dc_sched_[k]) * dc_eq_[k];
      lane_out[*it - dev_lo] = dc_kv_[k] * quarter_root(te);
      lane_n[*it - dev_lo] = kDcLaneDone;
    }
  }
  // Scalar fixup: the exact-recursion head (n < kSnExactCycles), the
  // boundary cycle (n == kSnExactCycles returns the prefix value itself),
  // duty 0, inactive devices and underflowed equivalent time all take the
  // reference scalar path.
  for (int i = dev_lo; i < dev_hi; ++i) {
    if (lane_n[i - dev_lo] <= kSnExactCycles) {
      lane_out[i - dev_lo] = model_.delta_vth(contexts_[i], total_time);
    }
  }
}

}  // namespace nbtisim::nbti
