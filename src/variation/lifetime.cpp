#include "variation/lifetime.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/pool.h"
#include "common/quantile.h"
#include "variation/variation.h"

namespace nbtisim::variation {

double LifetimeResult::failure_fraction_at(double t) const {
  if (lifetimes.empty()) return 0.0;
  int failed = 0;
  for (double l : lifetimes) failed += l <= t ? 1 : 0;
  return static_cast<double>(failed) / lifetimes.size();
}

double LifetimeResult::quantile(double q) const {
  return common::empirical_quantile(lifetimes, q);
}

LifetimeResult lifetime_distribution(const aging::AgingAnalyzer& analyzer,
                                     const aging::StandbyPolicy& policy,
                                     const LifetimeParams& params) {
  // Every check is written so NaN fails too.
  auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("lifetime_distribution: ") +
                                  what);
    }
  };
  require(std::isfinite(params.spec_margin_percent) &&
              params.spec_margin_percent > 0.0,
          "spec_margin_percent must be finite and > 0");
  // The sampler checks samples and sigma_vth.
  const MonteCarloAging mc(analyzer, {.sigma_vth = params.sigma_vth,
                                      .samples = params.samples,
                                      .seed = params.seed});
  require(std::isfinite(params.max_time) && params.max_time > 0.0,
          "max_time must be finite and > 0");
  require(params.time_grid_points >= 4, "time_grid_points must be >= 4");

  // Geometric time grid.  A point no sample reads is never evaluated, so
  // every grid time is checked here rather than by the ΔVth kernel.
  const int n_grid = params.time_grid_points;
  std::vector<double> grid_time(n_grid);
  const double t_min = params.max_time / std::pow(2.0, n_grid - 1.0) * 2.0;
  const double log_step = std::log(params.max_time / t_min) / (n_grid - 1);
  for (int k = 0; k < n_grid; ++k) {
    grid_time[k] = t_min * std::exp(log_step * k);
    if (!(std::isfinite(grid_time[k]) && grid_time[k] > 0.0)) {
      throw std::invalid_argument(
          "lifetime_distribution: time_grid_points = " +
          std::to_string(n_grid) + " puts grid point " + std::to_string(k) +
          " at a time that is not finite and > 0");
    }
  }

  const sta::StaEngine& sta = analyzer.sta();
  const double spec = analyzer.fresh_critical_delay() *
                      (1.0 + params.spec_margin_percent / 100.0);

  // Nominal per-gate dVth at a grid point, computed by its first reader,
  // once: a bisection reads only a few of the points, and the skipped
  // mid-grid ones are the kernel's most expensive horizons.  A point's value
  // does not depend on which sample or thread computes it.
  struct GridPoint {
    std::once_flag once;
    std::vector<double> dvth;
  };
  std::vector<GridPoint> grid(n_grid);
  std::atomic<int> evaluated{0};
  auto nominal_dvth = [&](int k) -> const std::vector<double>& {
    GridPoint& point = grid[k];
    std::call_once(point.once, [&] {
      point.dvth = analyzer.gate_dvth(policy, grid_time[k]);
      evaluated.fetch_add(1, std::memory_order_relaxed);
    });
    return point.dvth;
  };
  // Every sample's survivor check reads the horizon first: evaluate it
  // before the loop, where gate_dvth runs at the caller's full width.
  nominal_dvth(n_grid - 1);

  LifetimeResult result;
  result.max_time = params.max_time;
  result.lifetimes.resize(params.samples);

  // Samples are independent streams writing disjoint slots: bit-identical
  // for every thread count.
  common::parallel_for(params.samples, [&](int s) {
    // Drawn once, timed at every grid point the bisection reads.
    const MonteCarloAging::Sample sample = mc.draw(s, true);

    // Memoized per grid point: the bisection endpoints are re-read during
    // the final interpolation, and each STA pass costs a full circuit walk.
    std::vector<double> delay_cache(n_grid, -1.0);
    std::vector<double> delays;
    std::vector<double> arrival_scratch;
    auto delay_at_grid = [&](int k) {
      if (delay_cache[k] >= 0.0) return delay_cache[k];
      mc.delays(sample, nominal_dvth(k), delays);
      // Arrival-only STA: same max_delay bitwise, no TimingResult
      // allocation inside the per-sample bisection loop.
      return delay_cache[k] = sta.critical_delay(delays, arrival_scratch);
    };

    // Bisection over the grid (delay is monotone in time).
    if (delay_at_grid(n_grid - 1) <= spec) {
      result.lifetimes[s] = params.max_time;  // survivor
      return;
    }
    if (delay_at_grid(0) > spec) {
      result.lifetimes[s] = grid_time[0];  // dead (nearly) on arrival
      return;
    }
    int lo = 0, hi = n_grid - 1;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (delay_at_grid(mid) > spec) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    // Log-linear interpolation between the bracketing grid points.
    const double d_lo = delay_at_grid(lo);
    const double d_hi = delay_at_grid(hi);
    const double frac = d_hi > d_lo ? (spec - d_lo) / (d_hi - d_lo) : 0.5;
    result.lifetimes[s] =
        grid_time[lo] * std::pow(grid_time[hi] / grid_time[lo], frac);
  });
  result.grid_points_evaluated = evaluated.load(std::memory_order_relaxed);
  return result;
}

}  // namespace nbtisim::variation
