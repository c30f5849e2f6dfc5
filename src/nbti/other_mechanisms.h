/// \file other_mechanisms.h
/// \brief Companion failure mechanisms: PBTI, hot-carrier injection,
///        dielectric breakdown (TDDB) and electromigration (EM).
///
/// The paper focuses on NBTI ("applying negative bias stress to a PMOS
/// device brings the most deleterious impact"), but notes that "the bias
/// temperature instabilities exist in both PMOS and NMOS devices"
/// (Section 2.1), and its high-k discussion implies PBTI matters for newer
/// stacks. These extension models complete the aging picture:
///
///   - **PBTI**: the NMOS mirror of NBTI — stressed while the gate is at 1
///     (Vgs = +Vdd) — modeled with the same R-D/AC machinery scaled by a
///     technology ratio (high-k NMOS PBTI is typically a fraction of PMOS
///     NBTI at 90 nm-class stacks); AgingAnalyzer::build_stress builds the
///     NMOS devices' stress.
///   - **HCI**: hot-carrier damage accumulates per *switching event*, so it
///     scales with activity x clock frequency x active time and follows a
///     ~sqrt(t) power law; unlike BTI it does not recover.
///
/// Both shift NMOS thresholds and therefore slow pull-down (falling-output)
/// arcs — the complement of NBTI's pull-up-only effect; the slew-aware STA
/// combines them per arc.
///
/// TDDB and EM are *hard*-failure mechanisms: they do not shift a threshold
/// gradually but kill the device/wire outright, so their models deliver a
/// mean time to failure directly instead of a dVth(t):
///
///   - **TDDB**: gate-oxide breakdown under field/temperature stress,
///     modeled with the temperature-dependent field-acceleration form used
///     by RAMP-class reliability simulators:
///       MTTF ∝ (1/V)^(a - b·T) · exp[(X + Y/T + Z·T) / (k_B·T)]
///   - **EM**: interconnect electromigration per Black's equation:
///       MTTF ∝ J^-n · exp(E_a / (k_B·T))
///     with the current density proxied by the wire's average switching
///     current.
///
/// Both feed the aging/failure suite, which turns per-gate MTTFs into
/// Weibull unit-lifetime distributions and a system failure curve.
#pragma once

#include "nbti/schedule.h"
#include "tech/units.h"

namespace nbtisim::nbti {

/// PBTI technology parameters.
struct PbtiParams {
  /// K_v(PBTI) / K_v(NBTI) at identical stress conditions.
  double ratio = 0.35;
};

/// HCI model parameters.
struct HciParams {
  double k_hci = 1.5e-10;  ///< prefactor [V per sqrt(switching events)]
  double exponent = 0.5;   ///< time/event power law
  double temp_ref = 400.0; ///< reference temperature [K]
  /// Mild *negative* temperature activation: classic HCI worsens when cold
  /// (more energetic carriers); set 0 to disable.
  double temp_coeff = -4e-4;  ///< fractional change per kelvin around ref
};

/// HCI threshold shift of an NMOS switching with probability \p activity
/// per cycle at \p clock_hz during the active fraction of the schedule [V].
/// \throws std::invalid_argument for out-of-range activity or negative time
double hci_delta_vth(const HciParams& hci, double activity, double clock_hz,
                     const ModeSchedule& schedule, double total_time);

/// TDDB technology parameters (field-acceleration E-model).  The default
/// scale calibrates the nominal stress point (1.0 V, 400 K) to a ~25-year
/// intrinsic MTTF — the same order as the worst-case BTI crossings, so the
/// mechanisms genuinely compete in the failure suite.
struct TddbParams {
  double a = 78.0;       ///< voltage-acceleration exponent at T = 0
  double b = -0.081;     ///< exponent temperature slope [1/K]
  double x = 0.759;      ///< activation polynomial constant [eV]
  double y = -66.8;      ///< activation polynomial 1/T term [eV·K]
  double z = -8.37e-4;   ///< activation polynomial T term [eV/K]
  double scale_s = 4.5e5;  ///< prefactor [s] (calibration, see above)
};

/// Mean time to dielectric breakdown of an oxide stressed at \p vdd volts
/// and \p temp_k kelvin [s].
/// \throws std::invalid_argument for non-positive vdd, temperature or scale
double tddb_mttf(const TddbParams& tddb, double vdd, double temp_k);

/// EM technology parameters (Black's equation).  ref_current_a is the design
/// current of a minimum wire; scale_s calibrates MTTF at (ref current,
/// 400 K) to ~23 years.
struct EmParams {
  double n = 2.0;             ///< current-density exponent
  double ea = 0.8;            ///< activation energy [eV]
  double ref_current_a = 5e-6;///< design current of a minimum wire [A]
  double scale_s = 0.06;      ///< prefactor [s] (calibration, see above)
};

/// Mean time to electromigration failure of a wire carrying an average
/// switching current \p current_a at \p temp_k [s]; +infinity when the wire
/// carries no current (EM needs charge flow).
/// \throws std::invalid_argument for negative current or non-positive
///         temperature
double em_mttf(const EmParams& em, double current_a, double temp_k);

}  // namespace nbtisim::nbti
