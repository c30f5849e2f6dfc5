// Edge-case unit tests for the interpolated dVth(t) table (nbti::DvthTable):
// construction validation (NaN/Inf/malformed input), the extrapolation
// policy (t = 0, below the front node, clamped beyond the back node),
// degenerate single-point grids, and the duty-cycle 0 / 1 device curves.

#include "nbti/dvth_table.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "nbti/device_aging.h"

namespace nbtisim::nbti {
namespace {

DvthTable simple_table() {
  // Two curves over a 3-point grid.
  return DvthTable({1.0, 10.0, 100.0},
                   {{0.010, 0.100}, {0.020, 0.200}, {0.030, 0.300}});
}

TEST(DvthTableTest, ZeroTimeIsExactlyZero) {
  const DvthTable table = simple_table();
  EXPECT_EQ(table.value(0, 0.0), 0.0);
  EXPECT_EQ(table.value(1, 0.0), 0.0);
  std::vector<double> out(2, -1.0);
  table.values_at(0.0, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(DvthTableTest, BelowFrontInterpolatesFromOrigin) {
  // 0 < t < front: linear from the implicit (0, 0) origin — the same
  // convention aging::crossing_time applies before the first sample.
  const DvthTable table = simple_table();
  EXPECT_DOUBLE_EQ(table.value(0, 0.5), 0.005);
  EXPECT_DOUBLE_EQ(table.value(1, 0.25), 0.025);
}

TEST(DvthTableTest, BeyondBackClampsToLastSample) {
  const DvthTable table = simple_table();
  EXPECT_EQ(table.value(0, 100.0), 0.030);   // back node: exact hit
  EXPECT_EQ(table.value(0, 101.0), 0.030);   // just past
  EXPECT_EQ(table.value(1, 1.0e12), 0.300);  // far past
  std::vector<double> out(2);
  table.values_at(5.0e6, out);
  EXPECT_EQ(out[0], 0.030);
  EXPECT_EQ(out[1], 0.300);
}

TEST(DvthTableTest, InteriorNodesAreExactHits) {
  const DvthTable table = simple_table();
  EXPECT_EQ(table.value(0, 10.0), 0.020);
  EXPECT_EQ(table.value(1, 1.0), 0.100);
}

TEST(DvthTableTest, SinglePointGridClampsAboveAndRampsBelow) {
  const DvthTable table({50.0}, {{0.040}});
  EXPECT_EQ(table.num_points(), 1);
  EXPECT_EQ(table.grid_ratio(), 1.0);
  EXPECT_EQ(DvthTable::rel_error_bound(table.grid_ratio()), 0.0);
  EXPECT_EQ(table.value(0, 50.0), 0.040);   // the one node
  EXPECT_EQ(table.value(0, 500.0), 0.040);  // clamp above
  EXPECT_DOUBLE_EQ(table.value(0, 25.0), 0.020);  // origin ramp below
  EXPECT_EQ(table.value(0, 0.0), 0.0);
}

TEST(DvthTableTest, RejectsNonFiniteAndMalformedConstruction) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN / Inf grid times.
  EXPECT_THROW(DvthTable({1.0, nan}, {{0.1}, {0.2}}), std::invalid_argument);
  EXPECT_THROW(DvthTable({1.0, inf}, {{0.1}, {0.2}}), std::invalid_argument);
  // NaN / Inf / negative sampled values.
  EXPECT_THROW(DvthTable({1.0, 2.0}, {{0.1}, {nan}}), std::invalid_argument);
  EXPECT_THROW(DvthTable({1.0, 2.0}, {{inf}, {0.2}}), std::invalid_argument);
  EXPECT_THROW(DvthTable({1.0, 2.0}, {{0.1}, {-0.2}}), std::invalid_argument);
  // Non-positive or non-increasing grid.
  EXPECT_THROW(DvthTable({0.0, 1.0}, {{0.1}, {0.2}}), std::invalid_argument);
  EXPECT_THROW(DvthTable({-1.0, 1.0}, {{0.1}, {0.2}}), std::invalid_argument);
  EXPECT_THROW(DvthTable({2.0, 1.0}, {{0.1}, {0.2}}), std::invalid_argument);
  EXPECT_THROW(DvthTable({1.0, 1.0}, {{0.1}, {0.2}}), std::invalid_argument);
  // Empty / mismatched shapes.
  EXPECT_THROW(DvthTable({}, {}), std::invalid_argument);
  EXPECT_THROW(DvthTable({1.0, 2.0}, {{0.1}}), std::invalid_argument);
  EXPECT_THROW(DvthTable({1.0, 2.0}, {{0.1}, {0.2, 0.3}}),
               std::invalid_argument);
  EXPECT_THROW(DvthTable({1.0}, {{}}), std::invalid_argument);
}

TEST(DvthTableTest, RejectsBadQueries) {
  const DvthTable table = simple_table();
  EXPECT_THROW(table.value(0, -1.0), std::invalid_argument);
  EXPECT_THROW(table.value(-1, 1.0), std::invalid_argument);
  EXPECT_THROW(table.value(2, 1.0), std::invalid_argument);
  std::vector<double> wrong(3);
  EXPECT_THROW(table.values_at(1.0, wrong), std::invalid_argument);
}

TEST(DvthTableTest, GeometricGridPinsEndpointsAndResolution) {
  const std::vector<double> grid = DvthTable::geometric_grid(1.0e2, 1.0e6, 4);
  ASSERT_GE(grid.size(), 17u);  // 4 decades at 4 points per decade
  EXPECT_EQ(grid.front(), 1.0e2);  // both endpoints are exact nodes
  EXPECT_EQ(grid.back(), 1.0e6);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
  // Degenerate range: a single point.
  const std::vector<double> one = DvthTable::geometric_grid(7.0, 7.0, 16);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front(), 7.0);
  // Validation.
  EXPECT_THROW(DvthTable::geometric_grid(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(DvthTable::geometric_grid(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(DvthTable::geometric_grid(1.0, 2.0, 0), std::invalid_argument);
}

TEST(DvthTableTest, DutyZeroCurveStaysExactlyZero) {
  // A device that is never stressed samples to an all-zero row; the table
  // must return exact zero everywhere, not interpolation noise.
  const DeviceAging model;
  const ModeSchedule schedule = ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  DeviceStress off;
  off.active_stress_prob = 0.0;
  off.standby = StandbyMode::Relaxed;
  DeviceAging::StressContext ctx;
  model.make_contexts({&off, 1}, schedule, {&ctx, 1});

  const std::vector<double> grid = DvthTable::geometric_grid(1.0e4, 1.0e8, 4);
  std::vector<std::vector<double>> rows;
  for (double t : grid) rows.push_back({model.delta_vth(ctx, t)});
  const DvthTable table(grid, rows);
  for (double t : {0.0, 5.0e3, 1.0e4, 3.7e5, 1.0e8, 1.0e10}) {
    EXPECT_EQ(table.value(0, t), 0.0) << "t=" << t;
  }
}

TEST(DvthTableTest, DutyOneCurveWithinPowerLawBound) {
  // Full DC stress is the pure kv * t^(1/4) law — exactly the curve the
  // rel_error_bound derivation assumes, so the bound holds with no margin.
  const DeviceAging model;
  const ModeSchedule schedule = ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  DeviceStress dc;
  dc.active_stress_prob = 1.0;
  dc.standby = StandbyMode::Stressed;
  DeviceAging::StressContext ctx;
  model.make_contexts({&dc, 1}, schedule, {&ctx, 1});

  const std::vector<double> grid = DvthTable::geometric_grid(1.0e4, 1.0e8, 8);
  std::vector<std::vector<double>> rows;
  for (double t : grid) rows.push_back({model.delta_vth(ctx, t)});
  const DvthTable table(grid, rows);
  const double bound = DvthTable::rel_error_bound(table.grid_ratio());
  ASSERT_GT(bound, 0.0);
  for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
    const double mid = std::sqrt(grid[i] * grid[i + 1]);
    const double exact = model.delta_vth(ctx, mid);
    EXPECT_LE(std::abs(table.value(0, mid) - exact), bound * exact)
        << "segment " << i;
  }
}

}  // namespace
}  // namespace nbtisim::nbti
