// Unit tests for dual-Vth assignment (src/opt/dual_vth.*) and the
// per-gate Vth-offset plumbing it relies on.

#include "opt/dual_vth.h"

#include <gtest/gtest.h>

#include <limits>

#include "netlist/generators.h"
#include "sta/sta.h"

namespace nbtisim::opt {
namespace {

class DualVthTest : public ::testing::Test {
 protected:
  tech::Library lib_;
  netlist::Netlist c880_ = netlist::iscas85_like("c880");

  aging::AgingConditions cond() const {
    aging::AgingConditions c;
    c.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
    c.sp_vectors = 512;
    return c;
  }

  /// assign_dual_vth on c880 with its all-low analyzers at 330 K standby.
  DualVthResult assign_c880(const DualVthParams& params) const {
    const aging::AgingAnalyzer low(c880_, lib_, cond());
    const leakage::LeakageAnalyzer leak(c880_, lib_, 330.0);
    return assign_dual_vth(low, leak, params);
  }
};

// --- plumbing ---

TEST_F(DualVthTest, HighVthCellLeaksLess) {
  const tech::CellId nand2 = lib_.find("NAND2");
  for (std::uint32_t v = 0; v < 4; ++v) {
    EXPECT_LT(lib_.cell_leakage(nand2, v, 400.0, 0.10),
              lib_.cell_leakage(nand2, v, 400.0, 0.0))
        << "vector " << v;
  }
}

TEST_F(DualVthTest, HighVthCellIsSlower) {
  const tech::CellId nor3 = lib_.find("NOR3");
  EXPECT_GT(lib_.cell_delay(nor3, 2e-15, 400.0, 0.0, 0.10),
            lib_.cell_delay(nor3, 2e-15, 400.0, 0.0, 0.0));
}

TEST_F(DualVthTest, OffsetLeakageTableMatchesDirect) {
  const tech::LeakageTable t(lib_, 400.0, 0.08);
  const tech::CellId inv = lib_.find("INV");
  EXPECT_DOUBLE_EQ(t.leakage(inv, 0), lib_.cell_leakage(inv, 0, 400.0, 0.08));
  EXPECT_DOUBLE_EQ(t.vth_offset(), 0.08);
}

TEST_F(DualVthTest, StaAcceptsPerGateOffsets) {
  const sta::StaEngine sta(c880_, lib_);
  std::vector<double> offsets(c880_.num_gates(), 0.0);
  offsets[0] = 0.10;
  const std::vector<double> base = sta.gate_delays(400.0);
  const std::vector<double> with = sta.gate_delays(400.0, {}, offsets);
  EXPECT_GT(with[0], base[0]);
  for (int gi = 1; gi < c880_.num_gates(); ++gi) {
    EXPECT_DOUBLE_EQ(with[gi], base[gi]);
  }
  EXPECT_THROW(sta.gate_delays(400.0, {}, std::vector<double>(3)),
               std::invalid_argument);
}

TEST_F(DualVthTest, LeakageAnalyzerHonorsOffsets) {
  std::vector<double> offsets(c880_.num_gates(), 0.10);
  const leakage::LeakageAnalyzer low(c880_, lib_, 330.0);
  const leakage::LeakageAnalyzer high(c880_, lib_, 330.0, offsets);
  const std::vector<bool> zeros(c880_.num_inputs(), false);
  EXPECT_LT(high.circuit_leakage(zeros), 0.5 * low.circuit_leakage(zeros));
  EXPECT_THROW(
      leakage::LeakageAnalyzer(c880_, lib_, 330.0, std::vector<double>(2)),
      std::invalid_argument);
}

TEST_F(DualVthTest, AgingAnalyzerHonorsOffsets) {
  aging::AgingConditions all_high = cond();
  all_high.gate_vth_offsets.assign(c880_.num_gates(), 0.10);
  const aging::AgingAnalyzer low(c880_, lib_, cond());
  const aging::AgingAnalyzer high(c880_, lib_, all_high);
  // Higher Vth: slower fresh circuit but less NBTI degradation (Sec. 4.1).
  const auto rep_low = low.analyze(aging::StandbyPolicy::all_stressed());
  const auto rep_high = high.analyze(aging::StandbyPolicy::all_stressed());
  EXPECT_GT(rep_high.fresh_delay, rep_low.fresh_delay);
  EXPECT_LT(rep_high.percent(), rep_low.percent());
}

// --- the optimizer ---

TEST_F(DualVthTest, AssignmentRespectsDelayBudget) {
  const DualVthResult r = assign_c880({.delay_budget_percent = 3.0});
  EXPECT_LE(r.fresh_delay_dual, r.fresh_delay_low * 1.03 + 1e-15);
  EXPECT_GT(r.n_high, 0);
  EXPECT_LT(r.n_high, c880_.num_gates());  // critical path must stay low-Vth
}

TEST_F(DualVthTest, AssignmentSavesLeakageAndAging) {
  const DualVthResult r = assign_c880({.delay_budget_percent = 3.0});
  EXPECT_LT(r.leakage_dual, r.leakage_low);
  EXPECT_GT(r.leakage_saving_percent(), 10.0);
  // The co-benefit the paper predicts: aging drops too.
  EXPECT_LE(r.aging_dual_percent, r.aging_low_percent + 1e-9);
}

TEST_F(DualVthTest, BiggerBudgetMovesMoreGates) {
  const DualVthResult tight = assign_c880({.delay_budget_percent = 1.0});
  const DualVthResult loose = assign_c880({.delay_budget_percent = 6.0});
  EXPECT_GE(loose.n_high, tight.n_high);
  EXPECT_LE(loose.leakage_dual, tight.leakage_dual + 1e-18);
}

// On c880 moving every positive-slack gate to high Vth leaves the critical
// delay unchanged, so the cases above never reach the threshold bisection.
// On c432 that first try adds 3.7 %: at budgets of 0.5, 1 and 3 % the
// bisection runs, and it must end on the feasible side of its bracket.
TEST_F(DualVthTest, C432BisectionMeetsEachBudgetBelowTheAllEligibleSet) {
  const netlist::Netlist c432 = netlist::iscas85_like("c432");
  const aging::AgingAnalyzer low(c432, lib_, cond());
  const leakage::LeakageAnalyzer leak(c432, lib_, 330.0);
  const int all_eligible =
      assign_dual_vth(low, leak, {.delay_budget_percent = 10.0}).n_high;
  std::vector<int> n_high;
  for (double budget : {0.5, 1.0, 3.0}) {
    SCOPED_TRACE(::testing::Message() << "budget " << budget << " %");
    const DualVthResult r =
        assign_dual_vth(low, leak, {.delay_budget_percent = budget});
    EXPECT_LE(r.fresh_delay_dual, r.fresh_delay_low * (1.0 + budget / 100.0));
    EXPECT_LT(r.n_high, all_eligible);  // the first try broke the budget
    if (!n_high.empty()) {
      EXPECT_GE(r.n_high, n_high.back());
    }
    n_high.push_back(r.n_high);
  }
  EXPECT_GT(n_high.back(), n_high.front());
}

TEST_F(DualVthTest, ZeroBudgetStillFeasible) {
  // Threshold search must converge to a (possibly empty) feasible set.
  const DualVthResult r = assign_c880({.delay_budget_percent = 0.0});
  EXPECT_LE(r.fresh_delay_dual, r.fresh_delay_low * 1.0 + 1e-12);
}

TEST_F(DualVthTest, DanglingGateGoesHighVthWithoutBreakingTheBudget) {
  // An unconstrained gate (no path to a PO) exceeds every slack threshold:
  // it should be moved to high Vth, and its 1e30 sentinel must not stretch
  // the bisection bracket or the delay budget.
  netlist::Netlist nl("dangle");
  const netlist::NodeId a = nl.add_input("a");
  const netlist::NodeId b = nl.add_input("b");
  const netlist::NodeId x = nl.add_gate(tech::GateFn::Nand, {a, b}, "x");
  const netlist::NodeId dead = nl.add_gate(tech::GateFn::Not, {x}, "dead");
  const netlist::NodeId y = nl.add_gate(tech::GateFn::Not, {x}, "y");
  const netlist::NodeId z = nl.add_gate(tech::GateFn::And, {x, y}, "z");
  nl.mark_output(z);

  const aging::AgingAnalyzer low(nl, lib_, cond());
  const leakage::LeakageAnalyzer leak(nl, lib_, 330.0);
  const DualVthResult r =
      assign_dual_vth(low, leak, {.delay_budget_percent = 1.0});
  EXPECT_GT(r.gate_vth_offsets[nl.driver_gate(dead)], 0.0);
  EXPECT_LE(r.fresh_delay_dual, r.fresh_delay_low * 1.01 + 1e-15);
  // The critical path itself must stay low-Vth under the tight budget.
  EXPECT_DOUBLE_EQ(r.gate_vth_offsets[nl.driver_gate(z)], 0.0);
}

TEST_F(DualVthTest, RejectsBadParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(assign_c880({.high_vth_offset = 0.0}), std::invalid_argument);
  EXPECT_THROW(assign_c880({.delay_budget_percent = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(assign_c880({.high_vth_offset = nan}), std::invalid_argument);
  // A NaN budget used to pass the range check and move 155 of c880's 179
  // gates with no budget at all.
  EXPECT_THROW(assign_c880({.delay_budget_percent = nan}),
               std::invalid_argument);

  // The all-low side must be all-low and both analyzers one netlist's.
  aging::AgingConditions offset = cond();
  offset.gate_vth_offsets.assign(c880_.num_gates(), 0.10);
  const aging::AgingAnalyzer high(c880_, lib_, offset);
  const leakage::LeakageAnalyzer leak(c880_, lib_, 330.0);
  EXPECT_THROW(assign_dual_vth(high, leak), std::invalid_argument);
  const netlist::Netlist c432 = netlist::iscas85_like("c432");
  const aging::AgingAnalyzer other(c432, lib_, cond());
  EXPECT_THROW(assign_dual_vth(other, leak), std::invalid_argument);
}

// Saving grows with the offset (until drive dies) across circuits.
class DualVthOffsetSweep : public ::testing::TestWithParam<double> {};

TEST_P(DualVthOffsetSweep, LeakageSavingPositive) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  aging::AgingConditions c;
  c.sp_vectors = 256;
  const aging::AgingAnalyzer low(nl, lib, c);
  const leakage::LeakageAnalyzer leak(nl, lib, 330.0);
  const DualVthResult r = assign_dual_vth(
      low, leak, {.high_vth_offset = GetParam(), .delay_budget_percent = 4.0});
  EXPECT_GT(r.leakage_saving_percent(), 0.0) << "offset " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Offsets, DualVthOffsetSweep,
                         ::testing::Values(0.05, 0.10, 0.15));

}  // namespace
}  // namespace nbtisim::opt
