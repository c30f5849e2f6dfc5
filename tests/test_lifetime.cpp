// Unit tests for lifetime-distribution analysis (src/variation/lifetime.*).

#include "variation/lifetime.h"

#include <gtest/gtest.h>

#include "common/pool.h"
#include "netlist/generators.h"
#include "tech/units.h"

namespace nbtisim::variation {
namespace {

class LifetimeTest : public ::testing::Test {
 protected:
  LifetimeTest() : c432_(netlist::iscas85_like("c432")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c432_, lib_, cond_);
  }

  tech::Library lib_;
  netlist::Netlist c432_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
};

TEST_F(LifetimeTest, FailureFractionIsMonotoneInTime) {
  const LifetimeResult r = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 6.0, .samples = 80});
  double prev = 0.0;
  for (double t : {1e7, 1e8, 3e8, 9e8}) {
    const double f = r.failure_fraction_at(t);
    EXPECT_GE(f, prev);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST_F(LifetimeTest, TighterSpecShortensLifetimes) {
  const LifetimeResult loose = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 10.0, .samples = 60});
  const LifetimeResult tight = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 4.0, .samples = 60});
  EXPECT_LE(tight.quantile(0.5), loose.quantile(0.5));
}

TEST_F(LifetimeTest, RelaxedStandbyExtendsLifetime) {
  const LifetimeParams p{.spec_margin_percent = 5.0, .samples = 60};
  const LifetimeResult worst = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(), p);
  const LifetimeResult best = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_relaxed(), p);
  EXPECT_GE(best.quantile(0.5), worst.quantile(0.5));
}

TEST_F(LifetimeTest, MedianLifetimeInPlausibleBand) {
  // ~8% degradation at 10 years under this profile: a 6% spec should fail
  // most samples somewhere inside the 30-year horizon, at year-scale times.
  const LifetimeResult r = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 6.0, .samples = 80});
  const double median_years = r.quantile(0.5) / kSecondsPerYear;
  EXPECT_GT(median_years, 0.1);
  EXPECT_LT(median_years, 30.1);
}

TEST_F(LifetimeTest, GenerousSpecYieldsSurvivors) {
  const LifetimeResult r = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 40.0, .samples = 40});
  EXPECT_GT(r.survivor_fraction(), 0.9);
  EXPECT_NEAR(r.quantile(0.5), r.max_time, r.max_time * 0.01);
}

TEST_F(LifetimeTest, VariationSpreadsTheDistribution) {
  const LifetimeResult narrow = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 6.0, .sigma_vth = 0.002, .samples = 60});
  const LifetimeResult wide = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 6.0, .sigma_vth = 0.03, .samples = 60});
  const double narrow_spread =
      narrow.quantile(0.9) - narrow.quantile(0.1);
  const double wide_spread = wide.quantile(0.9) - wide.quantile(0.1);
  EXPECT_GT(wide_spread, narrow_spread);
}

TEST_F(LifetimeTest, DeterministicPerSeed) {
  const LifetimeParams p{.spec_margin_percent = 6.0, .samples = 30,
                         .seed = 77};
  const LifetimeResult a = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(), p);
  const LifetimeResult b = lifetime_distribution(
      *analyzer_, aging::StandbyPolicy::all_stressed(), p);
  EXPECT_EQ(a.lifetimes, b.lifetimes);
}

TEST_F(LifetimeTest, BitIdenticalAcrossThreadCounts) {
  const LifetimeParams p{.spec_margin_percent = 6.0, .samples = 40,
                         .seed = 13};
  LifetimeResult serial;
  {
    const common::ThreadBudget one(1);
    serial = lifetime_distribution(*analyzer_,
                                   aging::StandbyPolicy::all_stressed(), p);
  }
  for (int n : {2, 8}) {
    const common::ThreadBudget budget(n);
    const LifetimeResult r = lifetime_distribution(
        *analyzer_, aging::StandbyPolicy::all_stressed(), p);
    EXPECT_EQ(r.lifetimes, serial.lifetimes) << n;
  }
}

TEST_F(LifetimeTest, QuantileEdgeCases) {
  LifetimeResult single;
  single.lifetimes = {5.0};
  EXPECT_NEAR(single.quantile(0.0), 5.0, 1e-15);
  EXPECT_NEAR(single.quantile(0.5), 5.0, 1e-15);
  EXPECT_NEAR(single.quantile(1.0), 5.0, 1e-15);

  LifetimeResult r;
  r.lifetimes = {8.0, 1.0, 4.0, 2.0};  // sorted: 1 2 4 8
  EXPECT_NEAR(r.quantile(0.0), 1.0, 1e-15);
  EXPECT_NEAR(r.quantile(1.0), 8.0, 1e-15);
  EXPECT_NEAR(r.quantile(0.25), 1.75, 1e-12);  // index 0.75 inside [1, 2]
  EXPECT_NEAR(r.quantile(0.5), 3.0, 1e-12);    // index 1.5 inside [2, 4]
  EXPECT_THROW(r.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(r.quantile(1.1), std::invalid_argument);
}

TEST_F(LifetimeTest, FailureFractionAtExactSampleTimes) {
  LifetimeResult r;
  r.lifetimes = {1.0, 2.0, 3.0};
  r.max_time = 3.0;
  // The comparison is inclusive: a sample failing exactly at t counts.
  EXPECT_NEAR(r.failure_fraction_at(0.999), 0.0, 1e-15);
  EXPECT_NEAR(r.failure_fraction_at(1.0), 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(r.failure_fraction_at(2.0), 2.0 / 3.0, 1e-15);
  EXPECT_NEAR(r.failure_fraction_at(3.0), 1.0, 1e-15);
  EXPECT_NEAR(LifetimeResult{}.failure_fraction_at(1.0), 0.0, 1e-15);
}

TEST_F(LifetimeTest, RejectsBadParameters) {
  EXPECT_THROW(lifetime_distribution(*analyzer_,
                                     aging::StandbyPolicy::all_stressed(),
                                     {.spec_margin_percent = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(lifetime_distribution(*analyzer_,
                                     aging::StandbyPolicy::all_stressed(),
                                     {.samples = 1}),
               std::invalid_argument);
  EXPECT_THROW(lifetime_distribution(*analyzer_,
                                     aging::StandbyPolicy::all_stressed(),
                                     {.time_grid_points = 2}),
               std::invalid_argument);
  // Negative delays from shifts past the linearized delay law's domain
  // would also defeat the per-grid-point delay memo (sentinel -1).
  EXPECT_THROW(lifetime_distribution(*analyzer_,
                                     aging::StandbyPolicy::all_stressed(),
                                     {.sigma_vth = 1.0, .samples = 20}),
               std::domain_error);
  LifetimeResult empty;
  EXPECT_THROW(empty.quantile(0.5), std::logic_error);
}

}  // namespace
}  // namespace nbtisim::variation
