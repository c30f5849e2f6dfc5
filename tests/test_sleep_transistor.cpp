// Unit tests for NBTI-aware sleep-transistor sizing and circuit analysis
// (src/opt/sleep_transistor.*).

#include "opt/sleep_transistor.h"

#include <gtest/gtest.h>

#include <limits>

#include "netlist/generators.h"
#include "tech/units.h"

namespace nbtisim::opt {
namespace {

class SleepTransistorTest : public ::testing::Test {
 protected:
  nbti::RdParams rd_;
  nbti::ModeSchedule sched_ =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  StParams st_;
};

TEST_F(SleepTransistorTest, StAgesMoreWithMoreActiveTime) {
  // Fig. 8: dVth grows with RAS (the ST is stressed while ACTIVE).
  double prev = 0.0;
  for (double active_parts : {1.0, 3.0, 9.0}) {
    const nbti::ModeSchedule s =
        nbti::ModeSchedule::from_ras(active_parts, 1, 1000.0, 400.0, 330.0);
    const double d = st_delta_vth(rd_, s, kTenYears, st_);
    EXPECT_GT(d, prev) << "RAS=" << active_parts << ":1";
    prev = d;
  }
}

TEST_F(SleepTransistorTest, StAgesLessWithHigherInitialVth) {
  // Fig. 8: initial Vth 0.20 V ages most, 0.40 V least.
  StParams lo = st_, hi = st_;
  lo.vth_st = 0.20;
  hi.vth_st = 0.40;
  EXPECT_GT(st_delta_vth(rd_, sched_, kTenYears, lo),
            st_delta_vth(rd_, sched_, kTenYears, hi));
}

TEST_F(SleepTransistorTest, StDvthMagnitudeBand) {
  // Fig. 8 extremes: ~30 mV (Vth 0.20, RAS 9:1) down to ~7 mV (0.40, 1:9).
  StParams lo = st_;
  lo.vth_st = 0.20;
  const nbti::ModeSchedule mostly_active =
      nbti::ModeSchedule::from_ras(9, 1, 1000.0, 400.0, 330.0);
  const double worst = st_delta_vth(rd_, mostly_active, kTenYears, lo);
  EXPECT_GT(to_mV(worst), 15.0);
  EXPECT_LT(to_mV(worst), 60.0);

  StParams hi = st_;
  hi.vth_st = 0.40;
  const double best = st_delta_vth(rd_, sched_, kTenYears, hi);
  EXPECT_GT(to_mV(best), 2.0);
  EXPECT_LT(to_mV(best), 20.0);
  EXPECT_GT(worst, 2.0 * best);
}

TEST_F(SleepTransistorTest, StandbyTemperatureDoesNotAffectSt) {
  // "the threshold degradation is not influenced by the standby temperature
  // variations" — the ST is relaxed in standby.
  const nbti::ModeSchedule cold =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  const nbti::ModeSchedule hot =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
  EXPECT_NEAR(st_delta_vth(rd_, cold, kTenYears, st_),
              st_delta_vth(rd_, hot, kTenYears, st_), 1e-15);
}

TEST_F(SleepTransistorTest, SizingProducesPositiveGeometry) {
  const StSizing s = size_sleep_transistor(rd_, sched_, kTenYears, 1e-3, st_);
  EXPECT_GT(s.v_st, 0.0);
  EXPECT_LT(s.v_st, 0.1);
  EXPECT_GT(s.wl_base, 0.0);
  EXPECT_GT(s.wl_nbti_aware, s.wl_base);
}

TEST_F(SleepTransistorTest, Fig9UpsizePercentBand) {
  // Fig. 9: Delta(W/L) between ~1% and ~4% over the sweep.
  for (double vth_st : {0.20, 0.30, 0.40}) {
    for (double active_parts : {1.0, 9.0}) {
      StParams p = st_;
      p.vth_st = vth_st;
      const nbti::ModeSchedule s =
          nbti::ModeSchedule::from_ras(active_parts, 10.0 - active_parts,
                                       1000.0, 400.0, 330.0);
      const StSizing sz = size_sleep_transistor(rd_, s, kTenYears, 1e-3, p);
      EXPECT_GT(sz.wl_increase_percent(), 0.3)
          << "vth=" << vth_st << " act=" << active_parts;
      EXPECT_LT(sz.wl_increase_percent(), 12.0)
          << "vth=" << vth_st << " act=" << active_parts;
    }
  }
}

TEST_F(SleepTransistorTest, LargerCurrentNeedsWiderSt) {
  const StSizing a = size_sleep_transistor(rd_, sched_, kTenYears, 1e-3, st_);
  const StSizing b = size_sleep_transistor(rd_, sched_, kTenYears, 2e-3, st_);
  EXPECT_NEAR(b.wl_base / a.wl_base, 2.0, 1e-9);
}

TEST_F(SleepTransistorTest, TighterSigmaNeedsWiderSt) {
  StParams tight = st_;
  tight.sigma = 0.01;
  const StSizing loose = size_sleep_transistor(rd_, sched_, kTenYears, 1e-3, st_);
  const StSizing strict =
      size_sleep_transistor(rd_, sched_, kTenYears, 1e-3, tight);
  EXPECT_GT(strict.wl_base, loose.wl_base);
}

TEST_F(SleepTransistorTest, SizingRejectsBadInputs) {
  EXPECT_THROW(size_sleep_transistor(rd_, sched_, kTenYears, 0.0, st_),
               std::invalid_argument);
  StParams bad = st_;
  bad.sigma = 0.0;
  EXPECT_THROW(size_sleep_transistor(rd_, sched_, kTenYears, 1e-3, bad),
               std::invalid_argument);
  bad = st_;
  bad.vth_st = 1.1;
  EXPECT_THROW(size_sleep_transistor(rd_, sched_, kTenYears, 1e-3, bad),
               std::invalid_argument);
  // NaN used to pass both `<= 0.0` checks and size the ST to NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(size_sleep_transistor(rd_, sched_, kTenYears, nan, st_),
               std::invalid_argument);
  bad = st_;
  bad.vth_st = nan;
  EXPECT_THROW(size_sleep_transistor(rd_, sched_, kTenYears, 1e-3, bad),
               std::invalid_argument);
}

class StCircuitTest : public ::testing::Test {
 protected:
  StCircuitTest() : c432_(netlist::iscas85_like("c432")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c432_, lib_, cond_);
  }

  tech::Library lib_;
  netlist::Netlist c432_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
  StParams st_;
};

TEST_F(StCircuitTest, FooterPenaltyIsConstant) {
  const auto series = st_circuit_degradation_series(*analyzer_, StStyle::Footer,
                                                    st_, 1e6, 3e8, 5);
  for (const StDegradationPoint& pt : series) {
    EXPECT_NEAR(pt.st_percent, 100.0 * st_.sigma, 1e-9);
    EXPECT_NEAR(pt.total_percent, pt.logic_percent + pt.st_percent, 1e-9);
  }
}

TEST_F(StCircuitTest, SeriesReusesOneStressBuildAcrossPoints) {
  // Regression for the per-point descriptor rebuild: every point of the
  // with-ST series shares one all-relaxed stress build, and the ST device's
  // own stress context is hoisted out of the loop.
  EXPECT_EQ(analyzer_->stress_build_count(), 0u);
  const auto series = st_circuit_degradation_series(
      *analyzer_, StStyle::FooterAndHeader, st_, 1e6, 3e8, 12);
  ASSERT_EQ(series.size(), 12u);
  EXPECT_EQ(analyzer_->stress_build_count(), 1u);
}

TEST_F(StCircuitTest, HeaderPenaltyGrowsOverTime) {
  const auto series = st_circuit_degradation_series(*analyzer_, StStyle::Header,
                                                    st_, 1e6, 3e8, 5);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].st_percent, series[i - 1].st_percent);
  }
  EXPECT_GT(series.front().st_percent, 100.0 * st_.sigma - 1e-9);
}

TEST_F(StCircuitTest, BothRailsCostTwiceTheFooterAtTimeZeroish) {
  const auto footer = st_circuit_degradation_series(
      *analyzer_, StStyle::Footer, st_, 1e4, 1e5, 2);
  const auto both = st_circuit_degradation_series(
      *analyzer_, StStyle::FooterAndHeader, st_, 1e4, 1e5, 2);
  EXPECT_GT(both.front().st_percent, 1.9 * footer.front().st_percent);
}

TEST_F(StCircuitTest, Fig11StInsertionWinsEventually) {
  // The paper's Fig. 11 claim: there exist sigma values for which the gated
  // circuit is FASTER at 10 years than the ungated worst case, despite the
  // time-0 penalty.
  StParams small = st_;
  small.sigma = 0.01;
  const auto with_st = st_circuit_degradation_series(
      *analyzer_, StStyle::Footer, small, 3e8, 4e8, 2);
  const auto without = analyzer_->degradation_series(
      aging::StandbyPolicy::all_stressed(), 3e8, 4e8, 2);
  // At T_standby = 400 K the gap is larger; test at 330 K with 1%: the
  // relaxed logic + 1% penalty must beat the all-stressed logic by 10 years.
  aging::AgingConditions hot = cond_;
  hot.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
  const aging::AgingAnalyzer hot_an(c432_, lib_, hot);
  const auto with_hot = st_circuit_degradation_series(
      hot_an, StStyle::Footer, small, 3e8, 4e8, 2);
  const auto without_hot = hot_an.degradation_series(
      aging::StandbyPolicy::all_stressed(), 3e8, 4e8, 2);
  EXPECT_LT(with_hot.front().total_percent, without_hot.front().second);
  (void)with_st;
  (void)without;
}

TEST_F(StCircuitTest, GatedLogicAgesLikeBestCase) {
  const auto series = st_circuit_degradation_series(*analyzer_, StStyle::Footer,
                                                    st_, 3e8, 4e8, 2);
  const double best =
      analyzer_->analyze(aging::StandbyPolicy::all_relaxed(), 3e8).percent();
  EXPECT_NEAR(series.front().logic_percent, best, 1e-9);
}

TEST_F(StCircuitTest, BadSamplingSpecRejected) {
  EXPECT_THROW(st_circuit_degradation_series(*analyzer_, StStyle::Footer, st_,
                                             1e6, 1e5, 5),
               std::invalid_argument);
  EXPECT_THROW(st_circuit_degradation_series(*analyzer_, StStyle::Header, st_,
                                             1e6, 3e8, 1),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(st_circuit_degradation_series(*analyzer_, StStyle::Header, st_,
                                             nan, 3e8, 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace nbtisim::opt
