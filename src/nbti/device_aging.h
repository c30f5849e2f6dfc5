/// \file device_aging.h
/// \brief Top-level temperature-aware NBTI evaluation for one PMOS device.
///
/// Combines the three model layers:
///   R-D prefactor (rd_model)  x  AC-stress recursion (ac_model)
///   x  equivalent-time transform (schedule)
/// into the quantity the circuit flow consumes: dVth(total_time) for a PMOS
/// with a given stress profile under a given active/standby schedule.  Every
/// evaluation goes through one StressContext: a single device (the sleep
/// transistor, the paper benches) builds its own with context(), the circuit
/// flow builds a stress set's in one make_contexts() batch for the SoA
/// kernel.
#pragma once

#include <span>

#include "nbti/ac_model.h"
#include "nbti/schedule.h"

namespace nbtisim::nbti {

/// Temperature-aware NBTI evaluator (paper Section 3).
///
/// Stateless facade over the model layers; cheap to copy.  The default
/// configuration matches the paper's setup: T_active = 400 K,
/// T_standby = 330 K, Vdd = 1.0 V, |Vth0| = 220 mV, horizon 3e8 s.
class DeviceAging {
 public:
  explicit DeviceAging(RdParams params = {}) : params_(params) {}

  const RdParams& params() const { return params_; }

  /// dVth of a device with stress profile \p stress after \p total_time
  /// seconds of the repeating mode schedule \p schedule [V]:
  /// delta_vth(context(stress, schedule), total_time).
  double delta_vth(const DeviceStress& stress, const ModeSchedule& schedule,
                   double total_time) const;

  /// Horizon-independent evaluation state for one (stress, schedule) pair:
  /// the equivalent cycle, the K_v prefactor, and the S_n recursion prefix.
  /// Build once, then evaluate many horizons at O(1) each.  Its oracle is
  /// the one-shot equivalent_cycle -> ac_delta_vth composition
  /// (tests/support/reference.h reference_delta_vth).
  struct StressContext {
    bool always_zero = false;   ///< no equivalent stress: dVth(t) == 0
    double schedule_period = 1.0;  ///< wall-clock mode period [s]
    double eq_period = 0.0;        ///< equivalent cycle period [s]
    double temp_active = 400.0;    ///< evaluation temperature [K]
    AcStress ac;                   ///< equivalent duty / period pattern
    SnPrefix prefix;               ///< closed-form head for ac.duty
    double vgs = 1.0;              ///< stress gate bias magnitude [V]
    double vth0 = 0.22;            ///< initial threshold magnitude [V]
    double kv = 0.0;               ///< kv_at(params, temp_active, vgs, vth0)
    double period_pow = 0.0;       ///< ac.period^(1/4)
  };

  /// Precomputes the evaluation state of every stress in \p stresses under
  /// \p schedule into \p out (same size).  The S_n prefixes, nearly all of
  /// the cost, come from one make_sn_prefixes call over the batch's
  /// distinct duties; each device looks its duty up, so a batch pays one
  /// recursion per distinct duty, not per device.  A prefix depends on its
  /// duty alone, so each context is bitwise what one device alone would
  /// get, in any batch.  A device with no equivalent stress gets
  /// always_zero and default fields otherwise.
  /// \throws std::invalid_argument for a size mismatch, a non-finite vgs or
  ///         vth0, or an invalid stress or schedule (see equivalent_cycle),
  ///         each before any prefix is computed
  void make_contexts(std::span<const DeviceStress> stresses,
                     const ModeSchedule& schedule,
                     std::span<StressContext> out) const;

  /// The evaluation state of one device: make_contexts over \p stress alone.
  StressContext context(const DeviceStress& stress,
                        const ModeSchedule& schedule) const;

  /// dVth after \p total_time seconds via a precomputed context [V].
  double delta_vth(const StressContext& ctx, double total_time) const;

  /// As delta_vth, but evaluated under the *worst-case temperature
  /// assumption* the paper criticizes: standby time is treated as if it were
  /// spent at T_active (the schedule with temp_standby = temp_active).  Used
  /// by the pessimism ablation.
  double delta_vth_worst_case_temp(const DeviceStress& stress,
                                   const ModeSchedule& schedule,
                                   double total_time) const;

 private:
  RdParams params_;
};

}  // namespace nbtisim::nbti
