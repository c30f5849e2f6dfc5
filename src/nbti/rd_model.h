/// \file rd_model.h
/// \brief Reaction-diffusion (R-D) NBTI device model with temperature and
///        oxide-field dependence — paper Section 3.1/3.2, eqs. (1)-(6), (13)-(16), (23).
///
/// The interface-trap density under DC stress follows the classic R-D
/// solution N_it(t) = A t^(1/4) (eq. 5), where the prefactor
/// A = 1.16 (k_f N_0 / k_r)^(1/2) (D_H)^(1/4) carries the temperature
/// dependence of the hydrogen diffusion coefficient D_H and the
/// dissociation/annealing rates k_f, k_r (eqs. 13-15).  With E_f ~= E_r the
/// overall activation energy collapses to E_A = E_D / 4 (eq. 16) and all
/// temperature dependence can be expressed through D_H — the key fact behind
/// the paper's equivalent-stress-time transform (Section 3.2).
///
/// The threshold-voltage shift is dVth = (1+m) q N_it / C_ox (eq. 1), which
/// we fold into a single calibrated prefactor K_v (eq. 12) referenced at
/// (T_ref, Vdd, Vth_ref) and modulated by
///   - the diffusion ratio D_H(T)/D_H(T_ref) to the 1/4 power, and
///   - the oxide-field factor sqrt(Vgs - Vth) * exp(E_ox / E_0) (eq. 23),
/// so that a higher initial Vth yields a smaller NBTI shift — the
/// V_th-dependence the paper exploits in Section 4.1 and Fig. 8.
#pragma once

#include <cmath>

namespace nbtisim::nbti {

/// x^(1/4) as two IEEE square roots — the canonical quarter-power of every
/// t^(1/4)-shaped evaluation (the DC law here and the telescoped S_n tail in
/// ac_model).  Unlike std::pow(x, 0.25), sqrt is correctly rounded by
/// IEEE 754 and maps to one machine instruction whose packed form rounds
/// identically, so a SIMD lane evaluating the same expression (rd_kernel)
/// agrees with the scalar form to the last bit.  Every quarter-power in the
/// degradation laws must go through this helper; mixing it with
/// std::pow(x, 0.25) breaks the bit-identity contract between the scalar and
/// SoA paths.
inline double quarter_root(double x) { return std::sqrt(std::sqrt(x)); }

/// Reaction-diffusion model parameters.
///
/// `kv_ref` is calibrated such that a PMOS with Vth = 220 mV under DC stress
/// (Vgs = -1.0 V) at 400 K for ~10 years (3e8 s) degrades by ~49 mV,
/// matching the magnitude band of the paper's Table 1 / Fig. 3.
struct RdParams {
  double kv_ref = 3.75e-4;   ///< K_v at reference conditions [V * s^(-1/4)]
  double temp_ref = 400.0;   ///< reference temperature for kv_ref [K]
  double e_diffusion = 0.49; ///< H diffusion activation energy E_D [eV]
                             ///< (molecular-H value per Krishnan et al. [47];
                             ///< overall E_A = E_D/4 ~= 0.12 eV)
  double e_forward = 0.0;    ///< E_f - dissociation activation [eV]
  double e_reverse = 0.0;    ///< E_r - annealing activation [eV] (E_f ~= E_r)
  double e0_field = 0.2e9;   ///< field-acceleration constant E_0 [V/m]
                             ///< (tuned so the Fig. 8 max/min ratio across
                             ///< the Vth_ST sweep matches the paper's ~4.5x)
  double tox = 1.4e-9;       ///< oxide thickness [m]
  double vgs_ref = 1.0;      ///< reference |Vgs| for kv_ref [V]
  double vth_ref = 0.22;     ///< reference |Vth| for kv_ref [V]
};

/// Ratio of hydrogen diffusion coefficients D_H(temp) / D_H(ref):
///   exp(-E_D/k (1/T - 1/T_ref))    (eq. 13)
/// This is the factor that converts standby-temperature stress time into
/// equivalent active-temperature stress time (paper eq. 17).
/// \throws std::invalid_argument unless both temperatures are finite and > 0
double diffusion_ratio(const RdParams& p, double temp_k, double temp_ref_k);

/// Unnormalized oxide-field factor sqrt(Vgs - Vth) * exp(E_ox/E_0) from
/// eq. (23); returns 0 when the device is not in inversion (Vgs <= Vth).
double field_factor(const RdParams& p, double vgs, double vth);

/// The dVth prefactor K_v at arbitrary temperature / gate bias / threshold,
/// scaled from kv_ref [V * s^(-1/4)]:
///   K_v = kv_ref * (D(T)/D(T_ref))^(1/4)
///                * field_factor(vgs, vth) / field_factor(ref)
///                * exp(-(E_f - E_r) / 2k * (1/T - 1/T_ref))
double kv_at(const RdParams& p, double temp_k, double vgs, double vth);

/// DC-stress threshold shift dVth = K_v * t^(1/4)  (eqs. 5 + 12) [V].
/// \throws std::invalid_argument for negative time
double dc_delta_vth(const RdParams& p, double temp_k, double time_s,
                    double vgs, double vth);

/// Fractional recovery after removing stress: given the trap density at the
/// start of recovery and the preceding (cumulative) stress time, returns the
/// multiplicative survival factor 1 / (1 + sqrt(xi * t / t_stress)) (eq. 6,
/// with xi = 1/2 for the standard one-sided diffusion profile).
double recovery_factor(double recovery_time_s, double stress_time_s);

}  // namespace nbtisim::nbti
