// Unit tests for the rise/fall, slew-aware STA (src/sta/slew_sta.* and
// Library::cell_arc).

#include "sta/slew_sta.h"

#include <gtest/gtest.h>

#include "aging/multi.h"
#include "netlist/generators.h"
#include "tech/units.h"

namespace nbtisim::sta {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using tech::GateFn;
using Edge = tech::Library::Edge;

class CellArcTest : public ::testing::Test {
 protected:
  tech::Library lib_;
  static constexpr double kLoad = 2e-15;
  static constexpr double kSlew = 2e-11;
  static constexpr double kT = 400.0;
};

TEST_F(CellArcTest, DelayGrowsWithLoadAndSlew) {
  const tech::CellId inv = lib_.find("INV");
  const auto base = lib_.cell_arc(inv, Edge::Rise, kLoad, kSlew, kT);
  const auto heavy = lib_.cell_arc(inv, Edge::Rise, 5 * kLoad, kSlew, kT);
  const auto slow_in = lib_.cell_arc(inv, Edge::Rise, kLoad, 5 * kSlew, kT);
  EXPECT_GT(heavy.delay, base.delay);
  EXPECT_GT(heavy.out_slew, base.out_slew);
  EXPECT_GT(slow_in.delay, base.delay);
}

TEST_F(CellArcTest, RiseSlowerThanFallForInverter) {
  // PMOS drive is weaker at equal width ratio 2:1 (mobility ~2.2x).
  const tech::CellId inv = lib_.find("INV");
  const auto rise = lib_.cell_arc(inv, Edge::Rise, kLoad, kSlew, kT);
  const auto fall = lib_.cell_arc(inv, Edge::Fall, kLoad, kSlew, kT);
  EXPECT_GT(rise.delay, fall.delay * 0.95);
}

TEST_F(CellArcTest, NbtiSlowsOnlyPullupArcs) {
  const tech::CellId inv = lib_.find("INV");
  const auto rise0 = lib_.cell_arc(inv, Edge::Rise, kLoad, kSlew, kT, 0.0);
  const auto rise1 = lib_.cell_arc(inv, Edge::Rise, kLoad, kSlew, kT, 0.047);
  const auto fall0 = lib_.cell_arc(inv, Edge::Fall, kLoad, kSlew, kT, 0.0);
  const auto fall1 = lib_.cell_arc(inv, Edge::Fall, kLoad, kSlew, kT, 0.047);
  EXPECT_GT(rise1.delay, rise0.delay);
  EXPECT_DOUBLE_EQ(fall1.delay, fall0.delay);  // pull-down untouched
}

TEST_F(CellArcTest, MultiStageCellAlternatesEdges) {
  // BUF output rise goes through INV fall then INV rise: dVth slows it,
  // but BUF output fall also contains one internal rise -> also slowed.
  const tech::CellId buf = lib_.find("BUF");
  const auto rise0 = lib_.cell_arc(buf, Edge::Rise, kLoad, kSlew, kT, 0.0);
  const auto rise1 = lib_.cell_arc(buf, Edge::Rise, kLoad, kSlew, kT, 0.047);
  const auto fall0 = lib_.cell_arc(buf, Edge::Fall, kLoad, kSlew, kT, 0.0);
  const auto fall1 = lib_.cell_arc(buf, Edge::Fall, kLoad, kSlew, kT, 0.047);
  EXPECT_GT(rise1.delay, rise0.delay);
  EXPECT_GT(fall1.delay, fall0.delay);
  // The rise arc ends on the degraded pull-up of the larger second stage;
  // both arcs age, the composite cell by less than 2x the single-arc shift.
  EXPECT_GT(rise1.delay - rise0.delay, 0.0);
}

TEST_F(CellArcTest, VthOffsetSlowsBothEdges) {
  const tech::CellId nand2 = lib_.find("NAND2");
  const auto r0 = lib_.cell_arc(nand2, Edge::Rise, kLoad, kSlew, kT, 0, 0);
  const auto r1 = lib_.cell_arc(nand2, Edge::Rise, kLoad, kSlew, kT, 0, 0.1);
  const auto f0 = lib_.cell_arc(nand2, Edge::Fall, kLoad, kSlew, kT, 0, 0);
  const auto f1 = lib_.cell_arc(nand2, Edge::Fall, kLoad, kSlew, kT, 0, 0.1);
  EXPECT_GT(r1.delay, r0.delay);
  EXPECT_GT(f1.delay, f0.delay);
}

TEST_F(CellArcTest, RejectsBadInputs) {
  const tech::CellId inv = lib_.find("INV");
  EXPECT_THROW(lib_.cell_arc(inv, Edge::Rise, -1e-15, kSlew, kT),
               std::invalid_argument);
  EXPECT_THROW(lib_.cell_arc(inv, Edge::Rise, kLoad, -1e-12, kT),
               std::invalid_argument);
}

TEST_F(CellArcTest, UnatenessClassification) {
  using U = tech::Library::Unateness;
  EXPECT_EQ(lib_.unateness(lib_.find("INV")), U::Negative);
  EXPECT_EQ(lib_.unateness(lib_.find("NAND3")), U::Negative);
  EXPECT_EQ(lib_.unateness(lib_.find("NOR2")), U::Negative);
  EXPECT_EQ(lib_.unateness(lib_.find("AND2")), U::Positive);
  EXPECT_EQ(lib_.unateness(lib_.find("BUF")), U::Positive);
  EXPECT_EQ(lib_.unateness(lib_.find("XOR2")), U::Binate);
}

class SlewStaTest : public ::testing::Test {
 protected:
  tech::Library lib_;
};

TEST_F(SlewStaTest, InverterChainAlternatesEdges) {
  // In a 4-inverter chain, the output rise of stage k is caused by the
  // rise/fall alternation back to the input; arrivals must be strictly
  // increasing along the chain for both edges.
  Netlist nl("chain");
  NodeId prev = nl.add_input("a");
  std::vector<NodeId> nodes{prev};
  for (int i = 0; i < 4; ++i) {
    std::string name("n");
    name += std::to_string(i);
    prev = nl.add_gate(GateFn::Not, {prev}, name);
    nodes.push_back(prev);
  }
  nl.mark_output(prev);
  const SlewStaEngine sta(nl, lib_);
  const SlewTimingResult r = sta.analyze(400.0);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_GT(r.arrival_rise[nodes[i]], r.arrival_rise[nodes[i - 1]]);
    EXPECT_GT(r.arrival_fall[nodes[i]], r.arrival_fall[nodes[i - 1]]);
  }
}

TEST_F(SlewStaTest, MaxDelayComparableToScalarEngine) {
  const Netlist nl = netlist::iscas85_like("c880");
  const SlewStaEngine slew(nl, lib_);
  const StaEngine scalar(nl, lib_);
  const double d_slew = slew.analyze(400.0).max_delay;
  const double d_scalar = scalar.analyze_fresh(400.0).max_delay;
  // Same physics, different formulation: within ~2x of each other.
  EXPECT_GT(d_slew / d_scalar, 0.5);
  EXPECT_LT(d_slew / d_scalar, 2.0);
}

TEST_F(SlewStaTest, AgedRiseArcsOnly) {
  const Netlist nl = netlist::iscas85_like("c432");
  const SlewStaEngine sta(nl, lib_);
  const std::vector<double> dvth(nl.num_gates(), 0.047);
  const SlewTimingResult fresh = sta.analyze(400.0);
  const SlewTimingResult aged = sta.analyze(400.0, dvth);
  EXPECT_GT(aged.max_delay, fresh.max_delay);
  // Rise arrivals shift; fall arrivals of a single-stage-only path would
  // not — but every long path mixes edges, so both grow overall. Check the
  // asymmetry on a single inverter's output instead.
  Netlist one("one");
  const NodeId a = one.add_input("a");
  const NodeId y = one.add_gate(GateFn::Not, {a}, "y");
  one.mark_output(y);
  const SlewStaEngine s1(one, lib_);
  const std::vector<double> dv{0.047};
  const SlewTimingResult f1 = s1.analyze(400.0);
  const SlewTimingResult a1 = s1.analyze(400.0, dv);
  EXPECT_GT(a1.arrival_rise[y], f1.arrival_rise[y]);
  EXPECT_DOUBLE_EQ(a1.arrival_fall[y], f1.arrival_fall[y]);
}

TEST_F(SlewStaTest, SlewsArePositiveEverywhere) {
  const Netlist nl = netlist::iscas85_like("c499");
  const SlewStaEngine sta(nl, lib_);
  const SlewTimingResult r = sta.analyze(400.0);
  for (int n = 0; n < nl.num_nodes(); ++n) {
    EXPECT_GT(r.slew_rise[n], 0.0);
    EXPECT_GT(r.slew_fall[n], 0.0);
  }
}

TEST_F(SlewStaTest, CriticalOutputIsAPrimaryOutput) {
  const Netlist nl = netlist::iscas85_like("c432");
  const SlewStaEngine sta(nl, lib_);
  const SlewTimingResult r = sta.analyze(400.0);
  ASSERT_GE(r.critical_output, 0);
  bool is_po = false;
  for (NodeId po : nl.outputs()) is_po = is_po || po == r.critical_output;
  EXPECT_TRUE(is_po);
}

TEST_F(SlewStaTest, RejectsBadArguments) {
  const Netlist nl = netlist::make_parity_tree("p", 4);
  EXPECT_THROW(SlewStaEngine(nl, lib_, 0.0), std::invalid_argument);
  const SlewStaEngine sta(nl, lib_);
  EXPECT_THROW(sta.analyze(400.0, std::vector<double>(2)),
               std::invalid_argument);
}

// Rise/fall- and slew-aware NBTI degradation: the multi-mechanism analysis
// with PBTI and HCI off, where the threshold shift slows pull-up arcs only.
double slew_aware_percent(const aging::AgingAnalyzer& an,
                          const aging::StandbyPolicy& policy) {
  return aging::analyze_multi_mechanism(
             an, policy, {.enable_pbti = false, .enable_hci = false})
      .nbti_only_percent();
}

TEST_F(SlewStaTest, SlewAwareAgingHalvesThePaperEstimate) {
  // The headline physics check: rise-only aging is roughly half the
  // both-edges Taylor estimate.
  const Netlist nl = netlist::iscas85_like("c432");
  aging::AgingConditions cond;
  cond.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
  cond.sp_vectors = 512;
  const aging::AgingAnalyzer an(nl, lib_, cond);
  const double paper =
      an.analyze(aging::StandbyPolicy::all_stressed()).percent();
  const double slew_aware =
      slew_aware_percent(an, aging::StandbyPolicy::all_stressed());
  EXPECT_GT(slew_aware, 0.2 * paper);
  EXPECT_LT(slew_aware, 0.9 * paper);
}

TEST_F(SlewStaTest, SlewAwarePolicyOrderingHolds) {
  const Netlist nl = netlist::iscas85_like("c432");
  aging::AgingConditions cond;
  cond.sp_vectors = 512;
  const aging::AgingAnalyzer an(nl, lib_, cond);
  EXPECT_GT(slew_aware_percent(an, aging::StandbyPolicy::all_stressed()),
            slew_aware_percent(an, aging::StandbyPolicy::all_relaxed()));
}

}  // namespace
}  // namespace nbtisim::sta
