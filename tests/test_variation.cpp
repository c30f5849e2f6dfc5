// Unit tests for variation-aware aging Monte-Carlo (src/variation/*).

#include "variation/variation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/pool.h"
#include "netlist/generators.h"
#include "tech/units.h"

namespace nbtisim::variation {
namespace {

class VariationTest : public ::testing::Test {
 protected:
  VariationTest() : c880_(netlist::iscas85_like("c880")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c880_, lib_, cond_);
  }

  tech::Library lib_;
  netlist::Netlist c880_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
};

TEST_F(VariationTest, DistributionStatsBasics) {
  DelayDistribution d;
  d.delays = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(d.mean(), 2.5, 1e-12);
  EXPECT_NEAR(d.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_NEAR(d.quantile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(d.quantile(1.0), 4.0, 1e-12);
  EXPECT_NEAR(d.quantile(0.5), 2.5, 1e-12);
  EXPECT_THROW(d.quantile(1.5), std::invalid_argument);
  EXPECT_THROW(DelayDistribution{}.quantile(0.5), std::logic_error);
}

TEST_F(VariationTest, QuantileSingleElement) {
  DelayDistribution d;
  d.delays = {2.5};
  EXPECT_NEAR(d.quantile(0.0), 2.5, 1e-15);
  EXPECT_NEAR(d.quantile(0.5), 2.5, 1e-15);
  EXPECT_NEAR(d.quantile(1.0), 2.5, 1e-15);
}

TEST_F(VariationTest, QuantileMidBucketInterpolation) {
  DelayDistribution d;
  d.delays = {8.0, 1.0, 4.0, 2.0};  // sorted: 1 2 4 8
  // q = 0.25 lands at index 0.75: 0.25 * 1 + 0.75 * 2.
  EXPECT_NEAR(d.quantile(0.25), 1.75, 1e-12);
  // q = 0.5 lands at index 1.5: halfway between 2 and 4.
  EXPECT_NEAR(d.quantile(0.5), 3.0, 1e-12);
  EXPECT_NEAR(d.quantile(1.0), 8.0, 1e-12);
}

TEST_F(VariationTest, BitIdenticalAcrossThreadCounts) {
  // The parallel fan-out is purely a speed knob: per-sample SplitMix64
  // streams land in disjoint slots, so any thread count gives the serial
  // bits.
  const VariationParams p{.sigma_vth = 0.012, .samples = 60, .seed = 5};
  const MonteCarloAging mc(*analyzer_, p);
  DelayDistribution fresh1, aged1;
  {
    const common::ThreadBudget one(1);
    fresh1 = mc.fresh_distribution();
    aged1 = mc.aged_distribution(aging::StandbyPolicy::all_stressed(), 1e8);
  }
  for (int n : {2, 8}) {
    const common::ThreadBudget budget(n);
    EXPECT_EQ(mc.fresh_distribution().delays, fresh1.delays) << n;
    EXPECT_EQ(
        mc.aged_distribution(aging::StandbyPolicy::all_stressed(), 1e8).delays,
        aged1.delays)
        << n;
  }
}

TEST_F(VariationTest, RejectsBadParams) {
  EXPECT_THROW(MonteCarloAging(*analyzer_, {.samples = 1}),
               std::invalid_argument);
  EXPECT_THROW(MonteCarloAging(*analyzer_, {.sigma_vth = -0.01}),
               std::invalid_argument);
  // A 1 V sigma draws shifts past the linearized delay law's domain
  // (negative factors below about -0.6 V, no switching at Vdd - Vth0).
  const MonteCarloAging wide(*analyzer_, {.sigma_vth = 1.0, .samples = 20});
  EXPECT_THROW(wide.fresh_distribution(), std::domain_error);
  EXPECT_THROW(wide.aged_distribution(aging::StandbyPolicy::all_stressed(), 3e8),
               std::domain_error);
}

TEST_F(VariationTest, FreshDistributionCentersOnNominal) {
  const MonteCarloAging mc(*analyzer_, {.sigma_vth = 0.015, .samples = 200});
  const DelayDistribution fresh = mc.fresh_distribution();
  const double nominal = analyzer_->sta().analyze_fresh(400.0).max_delay;
  EXPECT_NEAR(fresh.mean() / nominal, 1.0, 0.05);
  EXPECT_GT(fresh.stddev(), 0.0);
}

TEST_F(VariationTest, AgedDistributionShiftsUp) {
  // Fig. 12: the aged distribution moves right relative to fresh.
  const MonteCarloAging mc(*analyzer_, {.sigma_vth = 0.015, .samples = 150});
  const DelayDistribution fresh = mc.fresh_distribution();
  const DelayDistribution aged =
      mc.aged_distribution(aging::StandbyPolicy::all_stressed(), 3e8);
  EXPECT_GT(aged.mean(), fresh.mean());
}

TEST_F(VariationTest, Fig12SeparationAfterThreeYears) {
  // Paper: the -3sigma bound at 3 years exceeds the +3sigma bound at t = 0.
  const MonteCarloAging mc(*analyzer_, {.sigma_vth = 0.012, .samples = 200});
  const DelayDistribution fresh = mc.fresh_distribution();
  const DelayDistribution aged3y =
      mc.aged_distribution(aging::StandbyPolicy::all_stressed(),
                           3.0 * kSecondsPerYear);
  EXPECT_GT(aged3y.lower3(), fresh.upper3());
}

TEST_F(VariationTest, AgingCompensatesVariation) {
  // [51]: variance under aging stays at or below the fresh variance,
  // because low-Vth (fast) gates age harder.
  const MonteCarloAging mc(*analyzer_, {.sigma_vth = 0.02, .samples = 200});
  const DelayDistribution fresh = mc.fresh_distribution();
  const DelayDistribution aged =
      mc.aged_distribution(aging::StandbyPolicy::all_stressed(), 3e8);
  const double fresh_cv = fresh.stddev() / fresh.mean();
  const double aged_cv = aged.stddev() / aged.mean();
  EXPECT_LE(aged_cv, fresh_cv * 1.02);
}

TEST_F(VariationTest, DeterministicPerSeed) {
  const MonteCarloAging a(*analyzer_, {.samples = 50, .seed = 9});
  const MonteCarloAging b(*analyzer_, {.samples = 50, .seed = 9});
  EXPECT_EQ(a.fresh_distribution().delays, b.fresh_distribution().delays);
}

TEST_F(VariationTest, MoreVariationMeansWiderDistribution) {
  const MonteCarloAging narrow(*analyzer_, {.sigma_vth = 0.005, .samples = 150});
  const MonteCarloAging wide(*analyzer_, {.sigma_vth = 0.03, .samples = 150});
  EXPECT_GT(wide.fresh_distribution().stddev(),
            narrow.fresh_distribution().stddev());
}

TEST_F(VariationTest, LongerAgingShiftsFurther) {
  const MonteCarloAging mc(*analyzer_, {.samples = 100});
  const double m1 =
      mc.aged_distribution(aging::StandbyPolicy::all_stressed(), 1e7).mean();
  const double m2 =
      mc.aged_distribution(aging::StandbyPolicy::all_stressed(), 3e8).mean();
  EXPECT_GT(m2, m1);
}

}  // namespace
}  // namespace nbtisim::variation
