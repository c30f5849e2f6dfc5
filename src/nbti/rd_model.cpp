#include "nbti/rd_model.h"

#include <cmath>
#include <stdexcept>

#include "tech/units.h"

namespace nbtisim::nbti {

double diffusion_ratio(const RdParams& p, double temp_k, double temp_ref_k) {
  // Written so NaN and inf fail too.
  if (!(std::isfinite(temp_k) && temp_k > 0.0)) {
    throw std::invalid_argument(
        "diffusion_ratio: temp_k must be finite and > 0");
  }
  if (!(std::isfinite(temp_ref_k) && temp_ref_k > 0.0)) {
    throw std::invalid_argument(
        "diffusion_ratio: temp_ref_k must be finite and > 0");
  }
  const double inv_diff = 1.0 / temp_k - 1.0 / temp_ref_k;
  return std::exp(-p.e_diffusion / kBoltzmannEv * inv_diff);
}

double field_factor(const RdParams& p, double vgs, double vth) {
  const double overdrive = vgs - vth;
  if (overdrive <= 0.0) return 0.0;
  const double e_ox = overdrive / p.tox;
  return std::sqrt(overdrive) * std::exp(e_ox / p.e0_field);
}

double kv_at(const RdParams& p, double temp_k, double vgs, double vth) {
  const double ref_field = field_factor(p, p.vgs_ref, p.vth_ref);
  if (ref_field <= 0.0) {
    throw std::logic_error("kv_at: reference field factor is zero");
  }
  const double d_scale = std::pow(diffusion_ratio(p, temp_k, p.temp_ref), 0.25);
  const double inv_diff = 1.0 / temp_k - 1.0 / p.temp_ref;
  const double fr_scale =
      std::exp(-(p.e_forward - p.e_reverse) / (2.0 * kBoltzmannEv) * inv_diff);
  return p.kv_ref * d_scale * fr_scale * field_factor(p, vgs, vth) / ref_field;
}

double dc_delta_vth(const RdParams& p, double temp_k, double time_s,
                    double vgs, double vth) {
  if (!(time_s >= 0.0)) {  // NaN fails too
    throw std::invalid_argument("dc_delta_vth: time negative or NaN");
  }
  return kv_at(p, temp_k, vgs, vth) * quarter_root(time_s);
}

double recovery_factor(double recovery_time_s, double stress_time_s) {
  if (recovery_time_s < 0.0 || stress_time_s < 0.0) {
    throw std::invalid_argument("recovery_factor: negative time");
  }
  if (recovery_time_s == 0.0) return 1.0;
  if (stress_time_s == 0.0) return 0.0;  // nothing accumulated, full recovery
  return 1.0 / (1.0 + std::sqrt(0.5 * recovery_time_s / stress_time_s));
}

}  // namespace nbtisim::nbti
