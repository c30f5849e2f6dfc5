// Unit tests for the lumped-RC thermal model (src/thermal/*).

#include "thermal/thermal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace nbtisim::thermal {
namespace {

class ThermalTest : public ::testing::Test {
 protected:
  RcThermalModel model_;
};

TEST_F(ThermalTest, SteadyStateIsLinearInPower) {
  const double t10 = model_.steady_state(10.0);
  const double t130 = model_.steady_state(130.0);
  EXPECT_NEAR(t130 - t10, 120.0 * model_.params().r_th, 1e-9);
}

TEST_F(ThermalTest, Fig2OperatingBand) {
  // Paper: 10-130 W maps to ~60-110 C (333-383 K).
  EXPECT_NEAR(model_.steady_state(10.0), 333.0, 2.0);
  EXPECT_NEAR(model_.steady_state(130.0), 383.0, 2.0);
}

TEST_F(ThermalTest, StepConvergesExponentially) {
  const double target = model_.steady_state(100.0);
  const double tau = model_.params().tau();
  const double t1 = model_.step(300.0, 100.0, tau);
  EXPECT_NEAR((target - t1) / (target - 300.0), std::exp(-1.0), 1e-9);
  // Millisecond-scale convergence, per the paper's assumption.
  const double settled = model_.step(300.0, 100.0, 10.0 * tau);
  EXPECT_NEAR(settled, target, 0.01 * (target - 300.0));
  EXPECT_LT(10.0 * tau, 0.1);  // well under 100 ms
}

const double kNan = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

/// Expects \p call to throw std::invalid_argument naming \p field.
template <class F>
void expect_rejects(F call, const std::string& field) {
  SCOPED_TRACE(field);
  try {
    call();
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

// NaN passes a `< 0` or `<= 0` check, so each field is also tried
// non-finite; a NaN step used to return NaN without a throw.
TEST_F(ThermalTest, StepRejectsNegativeDt) {
  EXPECT_THROW(model_.step(300.0, 50.0, -1.0), std::invalid_argument);
  for (double bad : {kNan, kInf, -kInf}) {
    expect_rejects([&] { model_.step(300.0, 50.0, bad); }, "dt");
    expect_rejects([&] { model_.step(bad, 50.0, 0.01); }, "t0");
    expect_rejects([&] { model_.step(300.0, bad, 0.01); }, "power");
  }
  EXPECT_NEAR(model_.step(300.0, 50.0, 0.0), 300.0, 1e-9);
}

TEST_F(ThermalTest, ConstructorRejectsBadConstants) {
  EXPECT_THROW(RcThermalModel({.r_th = 0.0}), std::invalid_argument);
  EXPECT_THROW(RcThermalModel({.c_th = -1.0}), std::invalid_argument);
  for (double bad : {kNan, kInf, -kInf, 0.0, -1.0}) {
    expect_rejects([&] { RcThermalModel({.r_th = bad}); }, "r_th");
    expect_rejects([&] { RcThermalModel({.c_th = bad}); }, "c_th");
    expect_rejects([&] { RcThermalModel({.t_ambient = bad}); }, "t_ambient");
  }
}

TEST_F(ThermalTest, SimulateStaysWithinSteadyStateEnvelope) {
  const std::vector<TaskInterval> trace =
      random_task_set(20, 10.0, 130.0, 0.05, 0.2, 7);
  const auto samples = model_.simulate(trace, 0.005, model_.steady_state(60.0));
  const double lo = model_.steady_state(10.0);
  const double hi = model_.steady_state(130.0);
  for (const auto& [t, temp] : samples) {
    EXPECT_GE(temp, lo - 1e-9);
    EXPECT_LE(temp, hi + 1e-9);
  }
  // Times are monotone and span the trace duration.
  double total = 0.0;
  for (const TaskInterval& task : trace) total += task.duration;
  EXPECT_NEAR(samples.back().first, total, 1e-9);
}

TEST_F(ThermalTest, SimulateShowsRealTemperatureSwing) {
  // Fig. 2's point: task switching produces tens of kelvin of swing.
  const std::vector<TaskInterval> trace =
      random_task_set(30, 10.0, 130.0, 0.05, 0.2, 11);
  const auto samples = model_.simulate(trace, 0.002, model_.steady_state(60.0));
  double lo = 1e9, hi = 0.0;
  for (const auto& [t, temp] : samples) {
    lo = std::min(lo, temp);
    hi = std::max(hi, temp);
  }
  EXPECT_GT(hi - lo, 20.0);
}

TEST_F(ThermalTest, SimulateRejectsBadInput) {
  EXPECT_THROW(model_.simulate({}, 0.01, 300.0), std::invalid_argument);
  const std::vector<TaskInterval> trace{{1.0, 50.0}};
  EXPECT_THROW(model_.simulate(trace, 0.0, 300.0), std::invalid_argument);
  const std::vector<TaskInterval> bad{{0.0, 50.0}};
  EXPECT_THROW(model_.simulate(bad, 0.01, 300.0), std::invalid_argument);
  // A NaN duration used to add no samples, and an infinite one never
  // left the sample loop.
  for (double v : {kNan, kInf, -kInf}) {
    expect_rejects([&] { model_.simulate(trace, v, 300.0); }, "sample_dt");
    expect_rejects([&] { model_.simulate(trace, 0.01, v); }, "t_initial");
    const std::vector<TaskInterval> duration{{1.0, 50.0}, {v, 50.0}};
    expect_rejects([&] { model_.simulate(duration, 0.01, 300.0); },
                   "duration");
    const std::vector<TaskInterval> power{{1.0, 50.0}, {1.0, v}};
    expect_rejects([&] { model_.simulate(power, 0.01, 300.0); }, "power");
  }
}

TEST_F(ThermalTest, RandomTaskSetRespectsBounds) {
  const auto trace = random_task_set(100, 10.0, 130.0, 0.01, 0.1, 3);
  ASSERT_EQ(trace.size(), 100u);
  for (const TaskInterval& t : trace) {
    EXPECT_GE(t.power, 10.0);
    EXPECT_LE(t.power, 130.0);
    EXPECT_GE(t.duration, 0.01);
    EXPECT_LE(t.duration, 0.1);
  }
}

TEST_F(ThermalTest, RandomTaskSetDeterministicPerSeed) {
  const auto a = random_task_set(10, 10.0, 130.0, 0.01, 0.1, 5);
  const auto b = random_task_set(10, 10.0, 130.0, 0.01, 0.1, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].power, b[i].power);
    EXPECT_EQ(a[i].duration, b[i].duration);
  }
  EXPECT_THROW(random_task_set(0, 1.0, 2.0, 0.1, 0.2, 1),
               std::invalid_argument);
}

TEST_F(ThermalTest, ModeTemperaturesMatchPaperSetup) {
  // An active/standby power split that lands near the paper's 400/330 K.
  const auto [t_active, t_standby] = mode_temperatures(model_, 170.0, 2.0);
  EXPECT_NEAR(t_active, 400.0, 2.0);
  EXPECT_NEAR(t_standby, 330.0, 2.0);
}

}  // namespace
}  // namespace nbtisim::thermal
