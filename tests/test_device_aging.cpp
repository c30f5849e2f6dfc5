// Unit tests for the temperature-aware device evaluator
// (src/nbti/device_aging.*) — reproduces the paper's Table 1 / Fig. 3 / Fig. 4
// qualitative structure at device level.

#include "nbti/device_aging.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "support/reference.h"
#include "tech/units.h"

namespace nbtisim::nbti {
namespace {

class DeviceAgingTest : public ::testing::Test {
 protected:
  DeviceAging model_;
  DeviceStress worst_{0.5, StandbyMode::Stressed, 1.0, 0.22};

  ModeSchedule ras(double standby_parts, double t_standby) const {
    return ModeSchedule::from_ras(1, standby_parts, 1000.0, 400.0, t_standby);
  }
};

TEST_F(DeviceAgingTest, ZeroAtZeroTime) {
  EXPECT_EQ(model_.delta_vth(worst_, ras(9, 330.0), 0.0), 0.0);
}

TEST_F(DeviceAgingTest, RejectsNegativeTime) {
  EXPECT_THROW(model_.delta_vth(worst_, ras(9, 330.0), -5.0),
               std::invalid_argument);
  // NaN used to pass `t < 0.0` and evaluate one cycle (0.82 mV).
  EXPECT_THROW(model_.delta_vth(worst_, ras(9, 330.0),
                                std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST_F(DeviceAgingTest, MonotoneInTime) {
  double prev = 0.0;
  for (double t : {1e5, 1e6, 1e7, 1e8, 3e8}) {
    const double d = model_.delta_vth(worst_, ras(9, 330.0), t);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST_F(DeviceAgingTest, MonotoneInStandbyTemperature) {
  // Fig. 4: hotter standby -> larger shift (standby-stressed device).
  double prev = 0.0;
  for (double ts : {330.0, 350.0, 370.0, 390.0, 400.0}) {
    const double d = model_.delta_vth(worst_, ras(5, ts), kTenYears);
    EXPECT_GT(d, prev) << "T_standby=" << ts;
    prev = d;
  }
}

TEST_F(DeviceAgingTest, Table1HotStandbyGrowsWithStandbyShare) {
  // T_standby = T_active = 400 K: more standby = more stress time.
  double prev = 0.0;
  for (double parts : {1.0, 3.0, 5.0, 7.0, 9.0}) {
    const double d = model_.delta_vth(worst_, ras(parts, 400.0), kTenYears);
    EXPECT_GT(d, prev) << "RAS=1:" << parts;
    prev = d;
  }
}

TEST_F(DeviceAgingTest, Table1ColdStandbyShrinksWithStandbyShare) {
  // T_standby = 330 K: more standby = more slow-diffusion time.
  double prev = 1.0;
  for (double parts : {1.0, 3.0, 5.0, 7.0, 9.0}) {
    const double d = model_.delta_vth(worst_, ras(parts, 330.0), kTenYears);
    EXPECT_LT(d, prev) << "RAS=1:" << parts;
    prev = d;
  }
}

TEST_F(DeviceAgingTest, Table1CrossoverTemperatureIsFlat) {
  // Near T_standby ~= 370 K the paper observes RAS-insensitivity.
  const double d1 = model_.delta_vth(worst_, ras(1, 370.0), kTenYears);
  const double d9 = model_.delta_vth(worst_, ras(9, 370.0), kTenYears);
  EXPECT_NEAR(d1 / d9, 1.0, 0.05);
}

TEST_F(DeviceAgingTest, Table1MagnitudeBand) {
  // Worst cell of Table 1 (RAS = 1:9, both modes at 400 K): tens of mV.
  const double d = model_.delta_vth(worst_, ras(9, 400.0), kTenYears);
  EXPECT_GT(to_mV(d), 30.0);
  EXPECT_LT(to_mV(d), 60.0);
}

TEST_F(DeviceAgingTest, WorstCaseTempAssumptionIsPessimistic) {
  const ModeSchedule s = ras(9, 330.0);
  const double aware = model_.delta_vth(worst_, s, kTenYears);
  const double pessimistic = model_.delta_vth_worst_case_temp(worst_, s, kTenYears);
  EXPECT_GT(pessimistic, aware);
  // And it matches the explicit hot-standby schedule.
  EXPECT_NEAR(pessimistic, model_.delta_vth(worst_, ras(9, 400.0), kTenYears),
              1e-15);
}

TEST_F(DeviceAgingTest, RelaxedStandbyAgesLessThanStressedStandby) {
  DeviceStress relaxed = worst_;
  relaxed.standby = StandbyMode::Relaxed;
  const ModeSchedule s = ras(9, 330.0);
  EXPECT_LT(model_.delta_vth(relaxed, s, kTenYears),
            model_.delta_vth(worst_, s, kTenYears));
}

TEST_F(DeviceAgingTest, StandbyTemperatureIrrelevantWhenRelaxed) {
  // Table 4's observation: "the temperature has negligible effect on [the]
  // NBTI relaxation phase" — by construction, exact here.
  DeviceStress relaxed = worst_;
  relaxed.standby = StandbyMode::Relaxed;
  const double cold = model_.delta_vth(relaxed, ras(9, 330.0), kTenYears);
  const double hot = model_.delta_vth(relaxed, ras(9, 400.0), kTenYears);
  EXPECT_NEAR(cold, hot, 1e-15);
}

TEST_F(DeviceAgingTest, NeverStressedDeviceDoesNotAge) {
  DeviceStress idle{0.0, StandbyMode::Relaxed, 1.0, 0.22};
  EXPECT_EQ(model_.delta_vth(idle, ras(9, 330.0), kTenYears), 0.0);
}

TEST_F(DeviceAgingTest, HigherInitialVthAgesLess) {
  DeviceStress low = worst_, high = worst_;
  low.vth0 = 0.20;
  high.vth0 = 0.40;
  const ModeSchedule s = ras(1, 330.0);
  EXPECT_GT(model_.delta_vth(low, s, kTenYears),
            model_.delta_vth(high, s, kTenYears));
}

// Expects \p fn to throw std::invalid_argument whose message names
// \p field.
template <class Fn>
void expect_rejects(Fn fn, const std::string& field) {
  try {
    fn();
    ADD_FAILURE() << "no exception; expected one naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

// Each of these used to pass its check: an infinite t_standby turned the
// equivalent period into NaN and a NaN temperature the diffusion ratio, and
// both evaluated to 0 V; a NaN vgs or vth0 evaluated to NaN.
TEST_F(DeviceAgingTest, RejectsNonFiniteSchedules) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ModeSchedule base = ras(9, 330.0);
  const struct {
    double ModeSchedule::*field;
    double value;
    const char* name;
  } cases[] = {
      {&ModeSchedule::t_standby, kInf, "t_standby"},
      {&ModeSchedule::t_standby, kNan, "t_standby"},
      {&ModeSchedule::t_active, kInf, "t_active"},
      {&ModeSchedule::t_active, kNan, "t_active"},
      {&ModeSchedule::temp_standby, kNan, "temp_standby"},
      {&ModeSchedule::temp_standby, kInf, "temp_standby"},
      {&ModeSchedule::temp_active, kNan, "temp_active"},
      {&ModeSchedule::temp_active, kInf, "temp_active"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.name << " = " << c.value);
    ModeSchedule bad = base;
    bad.*c.field = c.value;
    expect_rejects([&] { model_.delta_vth(worst_, bad, kTenYears); },
                   c.name);
    // The worst-case-temperature form copies temp_active into temp_standby.
    if (c.field != &ModeSchedule::temp_standby) {
      expect_rejects(
          [&] { model_.delta_vth_worst_case_temp(worst_, bad, kTenYears); },
          c.name);
    }
  }
  expect_rejects([&] { diffusion_ratio(RdParams{}, kNan, 400.0); }, "temp_k");
  expect_rejects([&] { diffusion_ratio(RdParams{}, 330.0, kInf); },
                 "temp_ref_k");
  expect_rejects([] { (void)EquivalentCycle{kInf, 1.0}.duty(); }, "period");
  expect_rejects([] { (void)EquivalentCycle{1.0, kNan}.duty(); }, "period");
}

TEST_F(DeviceAgingTest, RejectsNonFiniteStresses) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ModeSchedule s = ras(9, 330.0);
  for (const double v : {kNan, kInf, -kInf}) {
    SCOPED_TRACE(::testing::Message() << "value " << v);
    DeviceStress bad_vgs = worst_;
    bad_vgs.vgs = v;
    expect_rejects([&] { model_.delta_vth(bad_vgs, s, kTenYears); }, "vgs");
    DeviceStress bad_vth0 = worst_;
    bad_vth0.vth0 = v;
    expect_rejects([&] { model_.delta_vth(bad_vth0, s, kTenYears); }, "vth0");
    // A never-stressed device is checked too, and one bad device anywhere
    // fails its whole batch.
    DeviceStress idle{0.0, StandbyMode::Relaxed, v, 0.22};
    expect_rejects([&] { model_.delta_vth(idle, s, kTenYears); }, "vgs");
    const std::vector<DeviceStress> batch = {worst_, worst_, bad_vth0};
    std::vector<DeviceAging::StressContext> ctxs(batch.size());
    expect_rejects([&] { model_.make_contexts(batch, s, ctxs); }, "vth0");
  }
}

TEST_F(DeviceAgingTest, StressContextIsBitIdenticalToDirectEval) {
  // Both public forms evaluate through one StressContext (the circuit
  // pipeline caches them in batches); neither may change a single bit
  // against the one-shot equivalent_cycle -> ac_delta_vth composition.  The
  // horizons of 1 s and 500 s are shorter than one 1000 s schedule period,
  // so the cycle count is clamped to 1.
  const std::vector<DeviceStress> stresses = {
      worst_,
      {0.23, StandbyMode::Relaxed, 1.0, 0.22},
      {0.0, StandbyMode::Relaxed, 1.0, 0.25},   // never stressed
      {1.0, StandbyMode::Stressed, 1.1, 0.20},  // DC limit
      {0.6, StandbyMode::Stressed, 1.0, 0.22, 0.25},
  };
  for (double parts : {1.0, 9.0}) {
    const ModeSchedule s = ras(parts, 330.0);
    std::vector<DeviceAging::StressContext> ctxs(stresses.size());
    model_.make_contexts(stresses, s, ctxs);
    for (std::size_t k = 0; k < stresses.size(); ++k) {
      const DeviceStress& stress = stresses[k];
      const DeviceAging::StressContext& ctx = ctxs[k];
      for (double t : {1.0, 500.0, 1e4, 1e6, 3e8}) {
        const double want =
            testsupport::reference_delta_vth(RdParams{}, stress, s, t);
        EXPECT_EQ(model_.delta_vth(ctx, t), want)
            << "RAS=1:" << parts << " t=" << t;
        EXPECT_EQ(model_.delta_vth(stress, s, t), want)
            << "RAS=1:" << parts << " t=" << t;
      }
      EXPECT_EQ(model_.delta_vth(ctx, 0.0), 0.0);
      EXPECT_THROW(model_.delta_vth(ctx, -1.0), std::invalid_argument);
      EXPECT_THROW(
          model_.delta_vth(ctx, std::numeric_limits<double>::quiet_NaN()),
          std::invalid_argument);
    }
  }
  // The worst-case-temperature form is the same evaluation on the schedule
  // whose standby runs as hot as its active mode.
  const ModeSchedule cool = ras(9, 330.0);
  ModeSchedule hot = cool;
  hot.temp_standby = hot.temp_active;
  for (const DeviceStress& stress : stresses) {
    for (double t : {1.0, 500.0, 1e6, 3e8}) {
      EXPECT_EQ(model_.delta_vth_worst_case_temp(stress, cool, t),
                testsupport::reference_delta_vth(RdParams{}, stress, hot, t))
          << "t=" << t;
    }
  }
}

TEST_F(DeviceAgingTest, ExactRecursionMatchesClosedForm) {
  const ModeSchedule s = ras(9, 330.0);
  // The same equivalent cycle through the literal S_n recursion; a
  // moderate horizon keeps it cheap (1e4 cycles).
  const EquivalentCycle eq = equivalent_cycle(RdParams{}, worst_, s);
  const double t = 1e7;
  const double a = model_.delta_vth(worst_, s, t);
  const double b = testsupport::reference_ac_delta_vth_exact(
      RdParams{}, s.temp_active, {eq.duty(), eq.period()},
      (t / s.period()) * eq.period(), worst_.vgs, worst_.vth0);
  EXPECT_NEAR(a / b, 1.0, 2e-3);
}

// Full RAS x T_standby sweep: degradation is monotone in standby
// temperature for every RAS split (the structure behind Table 1).
class RasTempSweep : public ::testing::TestWithParam<double> {};

TEST_P(RasTempSweep, MonotoneInStandbyTemperature) {
  const DeviceAging model;
  const DeviceStress stress{0.5, StandbyMode::Stressed, 1.0, 0.22};
  const double parts = GetParam();
  double prev = 0.0;
  for (double ts = 330.0; ts <= 400.0; ts += 10.0) {
    const ModeSchedule s = ModeSchedule::from_ras(1, parts, 1000.0, 400.0, ts);
    const double d = model.delta_vth(stress, s, kTenYears);
    EXPECT_GT(d, prev) << "RAS=1:" << parts << " Ts=" << ts;
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(RasSplits, RasTempSweep,
                         ::testing::Values(1.0, 3.0, 5.0, 7.0, 9.0));

}  // namespace
}  // namespace nbtisim::nbti
