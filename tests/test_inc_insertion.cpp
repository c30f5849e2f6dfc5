// Unit tests for control-point insertion / gate replacement
// (src/opt/inc_insertion.*) and the forced-net simulation it relies on.

#include "opt/inc_insertion.h"

#include <gtest/gtest.h>

#include <limits>

#include "netlist/generators.h"
#include "sim/simulator.h"

namespace nbtisim::opt {
namespace {

class IncInsertionTest : public ::testing::Test {
 protected:
  tech::Library lib_;
  netlist::Netlist c432_ = netlist::iscas85_like("c432");

  aging::AgingConditions cond(double t_standby = 400.0) const {
    aging::AgingConditions c;
    c.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, t_standby);
    c.sp_vectors = 512;
    return c;
  }
};

// --- forced-net simulation plumbing ---

TEST_F(IncInsertionTest, ForcedNetOverridesAndPropagates) {
  netlist::Netlist nl("f");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto x = nl.add_gate(tech::GateFn::And, {a, b}, "x");
  const auto y = nl.add_gate(tech::GateFn::Not, {x}, "y");
  nl.mark_output(y);
  sim::Simulator sim(nl);
  const std::vector<std::pair<netlist::NodeId, bool>> forces{{x, true}};
  const std::vector<bool> v = sim.evaluate_forced({false, false}, forces);
  EXPECT_TRUE(v[x]);    // forced despite AND(0,0) = 0
  EXPECT_FALSE(v[y]);   // the forced 1 propagated through the inverter
}

TEST_F(IncInsertionTest, ForcedInputOverridesPiValue) {
  netlist::Netlist nl("f");
  const auto a = nl.add_input("a");
  const auto y = nl.add_gate(tech::GateFn::Buf, {a}, "y");
  nl.mark_output(y);
  sim::Simulator sim(nl);
  const std::vector<std::pair<netlist::NodeId, bool>> forces{{a, true}};
  EXPECT_TRUE(sim.evaluate_forced({false}, forces)[y]);
}

TEST_F(IncInsertionTest, ForcedBadNetRejected) {
  sim::Simulator sim(c432_);
  const std::vector<std::pair<netlist::NodeId, bool>> forces{{99999, true}};
  EXPECT_THROW(
      sim.evaluate_forced(std::vector<bool>(c432_.num_inputs(), false), forces),
      std::invalid_argument);
}

// --- the technique ---

TEST_F(IncInsertionTest, ReducesAgingAtHotStandby) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(400.0));
  const IncInsertionResult r =
      insert_control_points(an, {.max_control_points = 30});
  EXPECT_LT(r.aging_after, r.aging_before);
  EXPECT_GT(r.aging_saving_percent(), 0.0);
}

TEST_F(IncInsertionTest, SavingBoundedByIncPotential) {
  // Control points cannot beat the all-relaxed bound of Table 4.
  const aging::AgingAnalyzer an(c432_, lib_, cond(400.0));
  const double best =
      an.analyze(aging::StandbyPolicy::all_relaxed()).percent();
  const IncInsertionResult r =
      insert_control_points(an, {.max_control_points = 50});
  EXPECT_GE(r.aging_after, best - 1e-9);
}

TEST_F(IncInsertionTest, DelayPenaltyIsBounded) {
  const aging::AgingAnalyzer an(c432_, lib_, cond());
  const IncInsertionResult r = insert_control_points(
      an, {.max_control_points = 10, .driver_delay_penalty = 0.08});
  // Drivers were chosen with enough slack: the critical path should barely
  // move.
  EXPECT_LT(r.time0_penalty_percent(), 8.0);
  EXPECT_GE(r.fresh_after, r.fresh_before - 1e-15);
}

TEST_F(IncInsertionTest, MorePointsAtLeastAsMuchRelief) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(400.0));
  const IncInsertionResult few =
      insert_control_points(an, {.max_control_points = 5});
  const IncInsertionResult many =
      insert_control_points(an, {.max_control_points = 60});
  EXPECT_LE(many.aging_after, few.aging_after + 0.05);
}

TEST_F(IncInsertionTest, ControlledCountRespectsLimit) {
  const aging::AgingAnalyzer an(c432_, lib_, cond());
  const IncInsertionResult r =
      insert_control_points(an, {.max_control_points = 5});
  EXPECT_LE(r.controlled.size(), 5u);
  EXPECT_GE(r.controlled.size(), 1u);
}

TEST_F(IncInsertionTest, RejectsBadParameters) {
  const aging::AgingAnalyzer an(c432_, lib_, cond());
  EXPECT_THROW(insert_control_points(an, {.max_control_points = 0}),
               std::invalid_argument);
  EXPECT_THROW(insert_control_points(an, {.max_control_points = 5,
                                          .driver_delay_penalty = -0.1}),
               std::invalid_argument);
  // A NaN penalty used to pass the range check: it accepted 4 control
  // points with a NaN time-0 penalty and 0 % aging after them.
  EXPECT_THROW(
      insert_control_points(
          an, {.max_control_points = 5,
               .driver_delay_penalty =
                   std::numeric_limits<double>::quiet_NaN()}),
      std::invalid_argument);
}

TEST_F(IncInsertionTest, WorksAcrossCircuits) {
  for (const char* name : {"c499", "c880"}) {
    const netlist::Netlist nl = netlist::iscas85_like(name);
    const aging::AgingAnalyzer an(nl, lib_, cond(400.0));
    const IncInsertionResult r =
        insert_control_points(an, {.max_control_points = 20});
    EXPECT_LE(r.aging_after, r.aging_before + 1e-9) << name;
  }
}

}  // namespace
}  // namespace nbtisim::opt
