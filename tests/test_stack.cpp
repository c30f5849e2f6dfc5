// Unit tests for the series-stack leakage solver (src/tech/stack.*) —
// the physical engine behind the input-vector dependence of leakage.

#include "tech/stack.h"

#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace nbtisim::tech {
namespace {

class StackTest : public ::testing::Test {
 protected:
  DeviceParams nmos_ = default_device(Channel::Nmos);
  static constexpr double kW = 360e-9;
  static constexpr double kVdd = 1.0;
  static constexpr double kT = 400.0;

  StackSolution solve(std::vector<StackDevice> devs) {
    return solve_stack(nmos_, devs, kVdd, kVdd, kT);
  }
};

TEST_F(StackTest, SingleOffDeviceMatchesSubthresholdFormula) {
  const StackSolution s = solve({{kW, false, 0.0}});
  const double direct = subthreshold_current(nmos_, kW, 0.0, kVdd, 0.0, kT);
  EXPECT_NEAR(s.current, direct, 1e-6 * direct);
  EXPECT_TRUE(s.node_voltages.empty());
}

TEST_F(StackTest, TwoOffDevicesShowStackingEffect) {
  const double one = solve({{kW, false, 0.0}}).current;
  const double two = solve({{kW, false, 0.0}, {kW, false, 0.0}}).current;
  // The classic stacking effect: an order-of-magnitude-ish suppression.
  EXPECT_LT(two, one / 3.0);
  EXPECT_GT(two, one / 100.0);
}

TEST_F(StackTest, DeeperStacksLeakMonotonicallyLess) {
  double prev = solve({{kW, false, 0.0}}).current;
  for (int depth = 2; depth <= 4; ++depth) {
    std::vector<StackDevice> devs(depth, StackDevice{kW, false, 0.0});
    const double cur = solve(devs).current;
    EXPECT_LT(cur, prev) << "depth=" << depth;
    prev = cur;
  }
}

TEST_F(StackTest, IntermediateNodeVoltageIsBetweenRails) {
  const StackSolution s = solve({{kW, false, 0.0}, {kW, false, 0.0}});
  ASSERT_EQ(s.node_voltages.size(), 1u);
  EXPECT_GT(s.node_voltages[0], 0.0);
  EXPECT_LT(s.node_voltages[0], kVdd);
  // The internal node of a 2-stack settles near the bottom rail
  // (tens of millivolts), enough to shut off the top device.
  EXPECT_LT(s.node_voltages[0], 0.3);
}

TEST_F(StackTest, OnDeviceInStackIsTransparent) {
  // OFF-ON stack should leak like the single OFF device (on collapses).
  const double mixed =
      solve({{kW, false, 0.0}, {kW, true, 0.0}}).current;
  const double single = solve({{kW, false, 0.0}}).current;
  EXPECT_NEAR(mixed, single, 1e-6 * single);
}

TEST_F(StackTest, FullyConductingStackReportsZeroLeakage) {
  const StackSolution s = solve({{kW, true, 0.0}, {kW, true, 0.0}});
  EXPECT_EQ(s.current, 0.0);
}

TEST_F(StackTest, AgedDeviceLeaksLess) {
  const double fresh = solve({{kW, false, 0.0}}).current;
  const double aged = solve({{kW, false, 0.040}}).current;
  EXPECT_LT(aged, fresh);
}

TEST_F(StackTest, RejectsEmptyStack) {
  EXPECT_THROW(solve_stack(nmos_, {}, kVdd, kVdd, kT), std::invalid_argument);
}

TEST_F(StackTest, RejectsNegativeVoltage) {
  EXPECT_THROW(solve_stack(nmos_, {{kW, false, 0.0}}, -0.1, kVdd, kT),
               std::invalid_argument);
}

TEST_F(StackTest, ParallelOffLeakageScalesWithCount) {
  const double one = parallel_off_leakage(nmos_, kW, 1, kVdd, kT);
  const double three = parallel_off_leakage(nmos_, kW, 3, kVdd, kT);
  EXPECT_NEAR(three / one, 3.0, 1e-9);
  EXPECT_EQ(parallel_off_leakage(nmos_, kW, 0, kVdd, kT), 0.0);
}

// Current continuity: every solved internal node must carry equal currents
// through the devices on either side of it, and the node voltages must rise
// strictly from the rail to the output.
TEST_F(StackTest, CurrentContinuityAtInternalNode) {
  for (int depth = 2; depth <= 4; ++depth) {
    SCOPED_TRACE(::testing::Message() << "depth=" << depth);
    const StackSolution s =
        solve(std::vector<StackDevice>(depth, StackDevice{kW, false, 0.0}));
    ASSERT_EQ(s.node_voltages.size(), static_cast<std::size_t>(depth - 1));
    double vs = 0.0;
    for (int j = 0; j < depth; ++j) {
      const double vd = j + 1 < depth ? s.node_voltages[j] : kVdd;
      EXPECT_LT(vs, vd) << "device " << j;
      const double i_dev =
          subthreshold_current(nmos_, kW, -vs, vd - vs, vs, kT);
      EXPECT_NEAR(i_dev, s.current, 1e-9 * s.current) << "device " << j;
      vs = vd;
    }
  }
}

TEST_F(StackTest, RejectsNonFiniteInputs) {
  const std::vector<StackDevice> two{{kW, false, 0.0}, {kW, false, 0.0}};
  const auto expect_rejects = [](auto&& call, const char* param) {
    try {
      call();
      ADD_FAILURE() << "accepted a bad " << param;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(param), std::string::npos)
          << e.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {nan, inf, 0.0, -5.0}) {
    expect_rejects([&] { solve_stack(nmos_, two, kVdd, kVdd, t); }, "temp_k");
  }
  for (double v : {nan, inf}) {
    expect_rejects([&] { solve_stack(nmos_, two, v, kVdd, kT); }, "vout");
  }
  expect_rejects(
      [&] { solve_stack(nmos_, {{kW, false, 0.0}, {kW, true, nan}}, kVdd,
                        kVdd, kT); },
      "delta_vth");
}

// Stack leakage must be monotone in temperature regardless of depth.
class StackTempSweep
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(StackTempSweep, LeakageIncreasesWithTemperature) {
  const auto [depth, t_lo, t_hi] = GetParam();
  const DeviceParams p = default_device(Channel::Nmos);
  std::vector<StackDevice> devs(depth, StackDevice{360e-9, false, 0.0});
  const double lo = solve_stack(p, devs, 1.0, 1.0, t_lo).current;
  const double hi = solve_stack(p, devs, 1.0, 1.0, t_hi).current;
  EXPECT_GT(hi, lo);
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndTemps, StackTempSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(300.0, 330.0),
                       ::testing::Values(370.0, 400.0)));

}  // namespace
}  // namespace nbtisim::tech
