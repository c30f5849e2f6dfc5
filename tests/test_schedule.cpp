// Unit tests for the mode schedule and equivalent-time transform
// (src/nbti/schedule.*) — the paper's eqs. (17)-(19).

#include "nbti/schedule.h"

#include <gtest/gtest.h>

#include <limits>

namespace nbtisim::nbti {
namespace {

class ScheduleTest : public ::testing::Test {
 protected:
  RdParams p_;
  DeviceStress stress_{0.5, StandbyMode::Stressed, 1.0, 0.22};
};

TEST_F(ScheduleTest, FromRasSplitsPeriod) {
  const ModeSchedule s = ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  EXPECT_NEAR(s.t_active, 100.0, 1e-9);
  EXPECT_NEAR(s.t_standby, 900.0, 1e-9);
  EXPECT_NEAR(s.period(), 1000.0, 1e-9);
  EXPECT_EQ(s.temp_active, 400.0);
  EXPECT_EQ(s.temp_standby, 330.0);
}

TEST_F(ScheduleTest, FromRasRejectsBadRatios) {
  EXPECT_THROW(ModeSchedule::from_ras(0, 0, 1000.0, 400.0, 330.0),
               std::invalid_argument);
  EXPECT_THROW(ModeSchedule::from_ras(-1, 9, 1000.0, 400.0, 330.0),
               std::invalid_argument);
  EXPECT_THROW(ModeSchedule::from_ras(1, 9, 0.0, 400.0, 330.0),
               std::invalid_argument);
  // NaN used to pass every `x < 0.0` check here.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ModeSchedule::from_ras(1, nan, 1000.0, 400.0, 330.0),
               std::invalid_argument);
  EXPECT_THROW(ModeSchedule::from_ras(nan, 9, 1000.0, 400.0, 330.0),
               std::invalid_argument);
  EXPECT_THROW(ModeSchedule::from_ras(1, inf, 1000.0, 400.0, 330.0),
               std::invalid_argument);
  EXPECT_THROW(ModeSchedule::from_ras(1, 9, nan, 400.0, 330.0),
               std::invalid_argument);
  EXPECT_THROW(ModeSchedule::from_ras(1, 9, 1000.0, nan, 330.0),
               std::invalid_argument);
  EXPECT_THROW(ModeSchedule::from_ras(1, 9, 1000.0, 400.0, inf),
               std::invalid_argument);
}

TEST_F(ScheduleTest, EqualTemperaturesGiveWallClockTimes) {
  const ModeSchedule s = ModeSchedule::from_ras(1, 1, 200.0, 400.0, 400.0);
  const EquivalentCycle eq = equivalent_cycle(p_, stress_, s);
  // active: 100 s at duty 0.5 -> 50 stress / 50 recovery; standby 100 s
  // stressed at the same temperature -> full 100 s of stress.
  EXPECT_NEAR(eq.stress_time, 150.0, 1e-9);
  EXPECT_NEAR(eq.recovery_time, 50.0, 1e-9);
  EXPECT_NEAR(eq.duty(), 0.75, 1e-12);
  EXPECT_NEAR(eq.period(), 200.0, 1e-9);
}

TEST_F(ScheduleTest, ColdStandbyShrinksEquivalentStressTime) {
  const ModeSchedule warm = ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
  const ModeSchedule cold = ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  const double warm_stress = equivalent_cycle(p_, stress_, warm).stress_time;
  const double cold_stress = equivalent_cycle(p_, stress_, cold).stress_time;
  EXPECT_LT(cold_stress, warm_stress);
  // Exactly eq. (17): c*t_a + t_s * D_s/D_a.
  const double d_ratio = diffusion_ratio(p_, 330.0, 400.0);
  EXPECT_NEAR(cold_stress, 0.5 * 100.0 + 900.0 * d_ratio, 1e-9);
}

TEST_F(ScheduleTest, RelaxedStandbyBecomesRecoveryTime) {
  DeviceStress relaxed = stress_;
  relaxed.standby = StandbyMode::Relaxed;
  const ModeSchedule s = ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  const EquivalentCycle eq = equivalent_cycle(p_, relaxed, s);
  EXPECT_NEAR(eq.stress_time, 50.0, 1e-9);
  // Paper: relaxation is temperature-insensitive -> wall-clock standby time.
  EXPECT_NEAR(eq.recovery_time, 50.0 + 900.0, 1e-9);
}

TEST_F(ScheduleTest, ZeroActiveStressProbMeansNoActiveStress) {
  DeviceStress never{0.0, StandbyMode::Relaxed, 1.0, 0.22};
  const ModeSchedule s = ModeSchedule::from_ras(1, 1, 100.0, 400.0, 330.0);
  const EquivalentCycle eq = equivalent_cycle(p_, never, s);
  EXPECT_EQ(eq.stress_time, 0.0);
  EXPECT_NEAR(eq.recovery_time, 100.0, 1e-9);
}

TEST_F(ScheduleTest, RejectsBadStressProbability) {
  DeviceStress bad = stress_;
  bad.active_stress_prob = 1.5;
  const ModeSchedule s = ModeSchedule::from_ras(1, 1, 100.0, 400.0, 330.0);
  EXPECT_THROW(equivalent_cycle(p_, bad, s), std::invalid_argument);
  bad.active_stress_prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(equivalent_cycle(p_, bad, s), std::invalid_argument);
}

// Sweep: equivalent duty is monotone in the standby temperature when the
// device stays stressed in standby.
class EqDutyTempSweep : public ::testing::TestWithParam<double> {};

TEST_P(EqDutyTempSweep, DutyGrowsWithStandbyTemperature) {
  const RdParams p;
  const DeviceStress st{0.5, StandbyMode::Stressed, 1.0, 0.22};
  const double t1 = GetParam();
  const double t2 = t1 + 20.0;
  const ModeSchedule s1 = ModeSchedule::from_ras(1, 5, 600.0, 400.0, t1);
  const ModeSchedule s2 = ModeSchedule::from_ras(1, 5, 600.0, 400.0, t2);
  EXPECT_LT(equivalent_cycle(p, st, s1).duty(),
            equivalent_cycle(p, st, s2).duty());
}

INSTANTIATE_TEST_SUITE_P(StandbyTemps, EqDutyTempSweep,
                         ::testing::Values(310.0, 330.0, 350.0, 370.0));

}  // namespace
}  // namespace nbtisim::nbti
