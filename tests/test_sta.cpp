// Unit tests for static timing analysis (src/sta/*).

#include "sta/sta.h"

#include <gtest/gtest.h>

#include <random>

#include "netlist/generators.h"
#include "support/reference.h"
#include "tech/units.h"

namespace nbtisim::sta {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using tech::GateFn;

// Diamond: a -> x, y -> z with an extra inverter on one branch.
Netlist diamond() {
  Netlist nl("diamond");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(GateFn::Nand, {a, b}, "x");
  const NodeId y = nl.add_gate(GateFn::Not, {x}, "y");
  const NodeId z = nl.add_gate(GateFn::And, {x, y}, "z");
  nl.mark_output(z);
  return nl;
}

class StaTest : public ::testing::Test {
 protected:
  tech::Library lib_;
};

TEST_F(StaTest, ArrivalTimesWithUnitDelays) {
  const Netlist nl = diamond();
  const StaEngine sta(nl, lib_);
  const std::vector<double> unit(nl.num_gates(), 1.0);
  const TimingResult r = sta.analyze(unit);
  EXPECT_DOUBLE_EQ(r.arrival[nl.find_node("a")], 0.0);
  EXPECT_DOUBLE_EQ(r.arrival[nl.find_node("x")], 1.0);
  EXPECT_DOUBLE_EQ(r.arrival[nl.find_node("y")], 2.0);
  EXPECT_DOUBLE_EQ(r.arrival[nl.find_node("z")], 3.0);
  EXPECT_DOUBLE_EQ(r.max_delay, 3.0);
}

TEST_F(StaTest, CriticalPathRunsInputToOutput) {
  const Netlist nl = diamond();
  const StaEngine sta(nl, lib_);
  const TimingResult r = sta.analyze(std::vector<double>(nl.num_gates(), 1.0));
  ASSERT_GE(r.critical_path.size(), 2u);
  EXPECT_TRUE(nl.is_input(r.critical_path.front()));
  EXPECT_EQ(r.critical_path.back(), nl.find_node("z"));
  // Path a -> x -> y -> z.
  EXPECT_EQ(r.critical_path.size(), 4u);
}

TEST_F(StaTest, SlacksAreNonNegativeAndZeroOnCriticalPath) {
  const Netlist nl = netlist::make_alu("alu", 8);
  const StaEngine sta(nl, lib_);
  const std::vector<double> delays = sta.gate_delays(400.0);
  const TimingResult r = sta.analyze(delays);
  const std::vector<double> slack = sta.slacks(r, delays);
  for (double s : slack) EXPECT_GE(s, -1e-15);
  for (NodeId n : r.critical_path) {
    EXPECT_NEAR(slack[n], 0.0, 1e-15) << nl.node_name(n);
  }
}

TEST_F(StaTest, DanglingGateReportsUnconstrainedSlack) {
  // A gate with no path to any primary output used to get slack 0.0 —
  // indistinguishable from critical. It must report the sentinel instead.
  Netlist nl("dangle");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(GateFn::Nand, {a, b}, "x");
  const NodeId dead = nl.add_gate(GateFn::Not, {x}, "dead");
  const NodeId y = nl.add_gate(GateFn::Not, {x}, "y");
  const NodeId z = nl.add_gate(GateFn::And, {x, y}, "z");
  nl.mark_output(z);

  const StaEngine sta(nl, lib_);
  const std::vector<double> unit(nl.num_gates(), 1.0);
  const TimingResult r = sta.analyze(unit);
  const std::vector<double> slack = sta.slacks(r, unit);

  EXPECT_EQ(slack[dead], kUnconstrainedSlack);
  // Constrained nets keep exact finite slacks: the critical path stays at
  // zero and never aliases with the sentinel.
  EXPECT_LT(slack[x], kUnconstrainedSlack);
  EXPECT_NEAR(slack[x], 0.0, 1e-15);
  EXPECT_NEAR(slack[y], 0.0, 1e-15);
  EXPECT_NEAR(slack[z], 0.0, 1e-15);
}

TEST_F(StaTest, ZeroFaninGateRejectedAtConstruction) {
  // analyze() reads fanins[0]-style worst-arrival logic; fanin-less gates
  // are rejected up front so the engines never see one.
  Netlist nl("zf");
  nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateFn::And, {}, "g"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateFn::Not, {}, "g"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateFn::Xor, {}, "g"), std::invalid_argument);
}

TEST_F(StaTest, DelaySizeMismatchRejected) {
  const Netlist nl = diamond();
  const StaEngine sta(nl, lib_);
  EXPECT_THROW(sta.analyze(std::vector<double>(2, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(sta.gate_delays(400.0, std::vector<double>(2, 0.0)),
               std::invalid_argument);
}

TEST_F(StaTest, LoadsGrowWithFanout) {
  Netlist nl("fan");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(GateFn::And, {a, b}, "x");   // fanout 3
  const NodeId y = nl.add_gate(GateFn::Or, {a, b}, "y");    // fanout 1
  const NodeId o1 = nl.add_gate(GateFn::Not, {x}, "o1");
  const NodeId o2 = nl.add_gate(GateFn::Not, {x}, "o2");
  const NodeId o3 = nl.add_gate(GateFn::Nand, {x, y}, "o3");
  nl.mark_output(o1);
  nl.mark_output(o2);
  nl.mark_output(o3);
  const StaEngine sta(nl, lib_);
  EXPECT_GT(sta.gate_load(nl.driver_gate(x)), sta.gate_load(nl.driver_gate(y)));
}

TEST_F(StaTest, AgedDelaysAreSlower) {
  const Netlist nl = netlist::iscas85_like("c432");
  const StaEngine sta(nl, lib_);
  const std::vector<double> fresh = sta.gate_delays(400.0);
  const std::vector<double> dvth(nl.num_gates(), 0.047);
  const std::vector<double> aged = sta.gate_delays(400.0, dvth);
  for (int g = 0; g < nl.num_gates(); ++g) {
    EXPECT_GT(aged[g], fresh[g]) << "gate " << g;
  }
  EXPECT_GT(sta.analyze(aged).max_delay, sta.analyze(fresh).max_delay);
}

TEST_F(StaTest, MaxDelayIsMonotoneInAnySingleGateDelay) {
  const Netlist nl = diamond();
  const StaEngine sta(nl, lib_);
  std::vector<double> delays(nl.num_gates(), 1.0);
  const double base = sta.analyze(delays).max_delay;
  for (int g = 0; g < nl.num_gates(); ++g) {
    std::vector<double> bumped = delays;
    bumped[g] += 0.5;
    EXPECT_GE(sta.analyze(bumped).max_delay, base) << "gate " << g;
  }
}

TEST_F(StaTest, C880FreshDelayMatchesCalibration) {
  // DESIGN.md anchor: the c880-class ALU lands near the paper's ~3.55 ns.
  const Netlist nl = netlist::iscas85_like("c880");
  const StaEngine sta(nl, lib_);
  const double d = sta.analyze_fresh(400.0).max_delay;
  EXPECT_GT(to_ns(d), 2.5);
  EXPECT_LT(to_ns(d), 4.5);
}

TEST_F(StaTest, HotterCircuitIsSlowerUnderThisModel) {
  // Mobility loss dominates the Vth drop at these voltages.
  const Netlist nl = netlist::iscas85_like("c432");
  const StaEngine sta(nl, lib_);
  EXPECT_GT(sta.analyze_fresh(400.0).max_delay,
            sta.analyze_fresh(330.0).max_delay);
}

// sized_load scales each sink pin's cap by its gate's size; at size 1 it is
// the engine's own load, bit for bit.
TEST_F(StaTest, SizedLoadScalesEachSinkPin) {
  const Netlist nl = diamond();
  const StaEngine sta(nl, lib_);
  const std::vector<double> unit(nl.num_gates(), 1.0);
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    EXPECT_EQ(sta.sized_load(gi, unit), sta.gate_load(gi)) << "gate " << gi;
  }
  // x (gate 0) drives pin 0 of y (gate 1) and of z (gate 2).
  std::vector<double> sizes = unit;
  sizes[2] = 2.0;
  EXPECT_NEAR(sta.sized_load(0, sizes) - sta.gate_load(0),
              lib_.input_cap(sta.gate_cell(2), 0), 1e-30);
  EXPECT_EQ(sta.sized_load(0, unit, 2, 2.0), sta.sized_load(0, sizes));
  EXPECT_EQ(sta.sized_load(2, sizes), sta.gate_load(2));  // z drives no gate
  EXPECT_THROW(sta.sized_load(0, std::vector<double>(1, 1.0)),
               std::invalid_argument);
}

// Arrival at every node must be >= each fanin arrival plus its gate delay
// (DAG longest-path correctness on a random circuit).
TEST_F(StaTest, ArrivalRespectsAllEdgesOnRandomDag) {
  const Netlist nl = netlist::make_random_dag(
      "r", {.n_inputs = 24, .n_outputs = 12, .n_gates = 300, .seed = 5});
  const StaEngine sta(nl, lib_);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> uni(0.5, 2.0);
  std::vector<double> delays(nl.num_gates());
  for (double& d : delays) d = uni(rng);
  const TimingResult r = sta.analyze(delays);
  for (int g = 0; g < nl.num_gates(); ++g) {
    const netlist::Gate& gate = nl.gate(g);
    double worst = 0.0;
    for (NodeId in : gate.fanins) worst = std::max(worst, r.arrival[in]);
    EXPECT_NEAR(r.arrival[gate.output], worst + delays[g], 1e-12);
  }
}

// analyze() and critical_delay() share one forward pass, and analyze()
// re-picks each gate's latest fanin from the final arrivals when it walks
// the critical path back; the oracle records that fanin as the pass picks
// it.  Half the trials draw whole-picosecond delays from {1, 2, 3} ps, so
// equal fanin arrivals are common and the tie rule (the last of equal
// arrivals wins) decides the path.  Each trial also patches a random gate
// set, as a sizing trial does, and starts critical_delay's pass from the
// committed arrivals at gates up to the lowest patched one (gate 0 and the
// last gate included): it must equal the full pass over the patched delays
// bitwise, arrivals included.
TEST(CriticalDelayDifferentialTest, MatchesAnalyzeBitwise) {
  const tech::Library lib;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> uni(0.5, 2.0);
  int ties = 0;
  int started_late = 0;
  for (int which = 0; which < 8; ++which) {
    std::string name("r");
    name += std::to_string(which);
    const Netlist nl = netlist::make_random_dag(
        name, {.n_inputs = 6 + which,
               .n_outputs = 4,
               .n_gates = 80 + 50 * which,
               .seed = static_cast<std::uint64_t>(which + 1)});
    const StaEngine sta(nl, lib);
    std::vector<double> scaled = sta.gate_delays(400.0);
    std::vector<double> picos(nl.num_gates());
    std::vector<double> scratch;
    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE(::testing::Message()
                   << "circuit " << which << " trial " << trial);
      if (trial % 2 == 0) {
        for (double& d : scaled) d *= uni(rng);
      } else {
        for (double& d : picos) d = 1e-12 * static_cast<double>(1 + rng() % 3);
      }
      const std::vector<double>& delays = trial % 2 == 0 ? scaled : picos;
      const TimingResult want = testsupport::reference_analyze(sta, delays);
      const TimingResult got = sta.analyze(delays);
      EXPECT_EQ(got.arrival, want.arrival);
      EXPECT_EQ(got.max_delay, want.max_delay);
      EXPECT_EQ(got.critical_path, want.critical_path);
      EXPECT_EQ(sta.critical_delay(delays, scratch), want.max_delay);
      for (std::size_t i = 1; i < want.critical_path.size(); ++i) {
        const NodeId taken = want.critical_path[i - 1];
        const int gi = nl.driver_gate(want.critical_path[i]);
        for (NodeId in : nl.gate(gi).fanins) {
          ties += in != taken && !nl.is_input(in) &&
                  want.arrival[in] == want.arrival[taken];
        }
      }

      const int n_gates = nl.num_gates();
      for (int patch = 0; patch < 6; ++patch) {
        // Patch 1-4 random gates; patches 0 and 1 patch only gate 0 and
        // only the last gate, so those start gates are always covered.
        std::vector<double> patched = delays;
        int lowest = n_gates - 1;
        if (patch == 0) lowest = 0;
        const int count = patch < 2 ? 1 : 1 + static_cast<int>(rng() % 4);
        for (int k = 0; k < count; ++k) {
          const int gi = patch < 2 ? lowest
                                   : static_cast<int>(rng() % n_gates);
          patched[gi] = trial % 2 == 0
                            ? patched[gi] * uni(rng)
                            : 1e-12 * static_cast<double>(1 + rng() % 3);
          lowest = std::min(lowest, gi);
        }
        const TimingResult full =
            testsupport::reference_analyze(sta, patched);
        for (const int first :
             {lowest, static_cast<int>(rng() % (lowest + 1)), 0}) {
          SCOPED_TRACE(::testing::Message()
                       << "patch " << patch << " first gate " << first);
          std::vector<double> arrival = want.arrival;
          EXPECT_EQ(sta.critical_delay(patched, arrival, first),
                    full.max_delay);
          EXPECT_EQ(arrival, full.arrival);
          started_late += first > 0;
        }
      }
    }
  }
  // The tie rule must decide some critical-path step past the inputs.
  EXPECT_GT(ties, 0);
  EXPECT_GT(started_late, 0);
}

TEST(CriticalDelayDifferentialTest, RejectsABadStartGate) {
  const tech::Library lib;
  const Netlist nl = diamond();
  const StaEngine sta(nl, lib);
  const std::vector<double> delays = sta.gate_delays(400.0);
  std::vector<double> arrival = sta.analyze(delays).arrival;
  const double full = sta.analyze(delays).max_delay;
  // Starting past the last gate recomputes nothing: the committed pass.
  EXPECT_EQ(sta.critical_delay(delays, arrival, nl.num_gates()), full);
  EXPECT_THROW(sta.critical_delay(delays, arrival, nl.num_gates() + 1),
               std::invalid_argument);
  EXPECT_THROW(sta.critical_delay(delays, arrival, -1),
               std::invalid_argument);
  std::vector<double> short_arrival(nl.num_nodes() - 1, 0.0);
  EXPECT_THROW(sta.critical_delay(delays, short_arrival, 1),
               std::invalid_argument);
}

class StaCircuitSweep : public ::testing::TestWithParam<std::string_view> {};

TEST_P(StaCircuitSweep, FreshAnalysisProducesSaneNumbers) {
  const tech::Library lib;
  const Netlist nl = netlist::iscas85_like(std::string(GetParam()));
  const StaEngine sta(nl, lib);
  const TimingResult r = sta.analyze_fresh(400.0);
  EXPECT_GT(to_ns(r.max_delay), 0.1) << GetParam();
  EXPECT_LT(to_ns(r.max_delay), 100.0) << GetParam();
  ASSERT_FALSE(r.critical_path.empty());
  EXPECT_TRUE(nl.is_input(r.critical_path.front()));
}

INSTANTIATE_TEST_SUITE_P(Circuits, StaCircuitSweep,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c6288"),
                         [](const auto& suite_info) {
                           return std::string(suite_info.param);
                         });

}  // namespace
}  // namespace nbtisim::sta
