// Unit tests for the netlist DAG (src/netlist/netlist.*).

#include "netlist/netlist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "netlist/generators.h"

namespace nbtisim::netlist {
namespace {

using tech::GateFn;

// "i<k>", built by appending (GCC 12 reports a false -Wrestrict overlap on
// an inlined "i" + std::to_string(k) at -O3).
std::string input_name(int k) {
  std::string name("i");
  name += std::to_string(k);
  return name;
}

Netlist tiny() {
  // a, b -> n1 = NAND(a,b); out = NOT(n1)  (an AND built from gates)
  Netlist nl("tiny");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId n1 = nl.add_gate(GateFn::Nand, {a, b}, "n1");
  const NodeId out = nl.add_gate(GateFn::Not, {n1}, "out");
  nl.mark_output(out);
  return nl;
}

TEST(NetlistTest, BasicConstructionAndCounts) {
  const Netlist nl = tiny();
  EXPECT_EQ(nl.num_inputs(), 2);
  EXPECT_EQ(nl.num_outputs(), 1);
  EXPECT_EQ(nl.num_gates(), 2);
  EXPECT_EQ(nl.num_nodes(), 4);
  EXPECT_EQ(nl.name(), "tiny");
}

TEST(NetlistTest, FindNodeAndNames) {
  const Netlist nl = tiny();
  EXPECT_EQ(nl.node_name(nl.find_node("n1")), "n1");
  EXPECT_TRUE(nl.has_node("out"));
  EXPECT_FALSE(nl.has_node("zz"));
  EXPECT_THROW(nl.find_node("zz"), std::out_of_range);
}

TEST(NetlistTest, DriverAndFanouts) {
  const Netlist nl = tiny();
  EXPECT_TRUE(nl.is_input(nl.find_node("a")));
  EXPECT_EQ(nl.driver_gate(nl.find_node("n1")), 0);
  EXPECT_EQ(nl.driver_gate(nl.find_node("out")), 1);
  ASSERT_EQ(nl.fanout_gates(nl.find_node("n1")).size(), 1u);
  EXPECT_EQ(nl.fanout_gates(nl.find_node("n1"))[0], 1);
  EXPECT_TRUE(nl.fanout_gates(nl.find_node("out")).empty());
}

TEST(NetlistTest, LevelsAndDepth) {
  Netlist nl = tiny();
  const std::vector<int> lv = nl.node_levels();
  EXPECT_EQ(lv[nl.find_node("a")], 0);
  EXPECT_EQ(lv[nl.find_node("n1")], 1);
  EXPECT_EQ(lv[nl.find_node("out")], 2);
  EXPECT_EQ(nl.depth(), 2);

  // Levels and depth follow a gate added after a depth() call.
  const NodeId out2 = nl.add_gate(GateFn::Not, {nl.find_node("out")}, "out2");
  nl.mark_output(out2);
  EXPECT_EQ(nl.node_levels()[out2], 3);
  EXPECT_EQ(nl.depth(), 3);

  // On a random DAG every gate's output sits above all of its fanins, and
  // depth() is the largest level.
  const Netlist dag = make_random_dag(
      "r", {.n_inputs = 12, .n_outputs = 6, .n_gates = 200, .seed = 3});
  const std::vector<int> level = dag.node_levels();
  ASSERT_EQ(static_cast<int>(level.size()), dag.num_nodes());
  for (int gi = 0; gi < dag.num_gates(); ++gi) {
    const Gate& g = dag.gate(gi);
    for (NodeId in : g.fanins) {
      EXPECT_GT(level[g.output], level[in]) << "gate " << gi;
    }
  }
  EXPECT_EQ(dag.depth(), *std::max_element(level.begin(), level.end()));
}

TEST(NetlistTest, DuplicateNamesRejected) {
  Netlist nl("dup");
  nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), std::invalid_argument);
  nl.add_input("b");
  nl.add_gate(GateFn::And, {0, 1}, "x");
  EXPECT_THROW(nl.add_gate(GateFn::Or, {0, 1}, "x"), std::invalid_argument);
}

TEST(NetlistTest, FaninsMustExist) {
  Netlist nl("bad");
  nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateFn::Not, {5}, "x"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateFn::Not, {-1}, "y"), std::invalid_argument);
}

TEST(NetlistTest, ArityEnforced) {
  Netlist nl("arity");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  EXPECT_THROW(nl.add_gate(GateFn::Not, {a, b}, "x"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateFn::Xor, {a, b, c}, "y"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateFn::And, {a}, "z"), std::invalid_argument);
  EXPECT_THROW(
      nl.add_gate(GateFn::Nand, {a, b, c, a, b}, "w"), std::invalid_argument);
}

TEST(NetlistTest, ValidateCatchesDanglingNet) {
  Netlist nl("dangle");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(GateFn::And, {a, b}, "x");
  nl.add_gate(GateFn::Not, {a}, "y");  // y dangles
  nl.mark_output(x);
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST(NetlistTest, ValidatePassesOnCleanCircuit) {
  EXPECT_NO_THROW(tiny().validate());
}

TEST(NetlistTest, MarkOutputIsIdempotent) {
  Netlist nl = tiny();
  const NodeId out = nl.find_node("out");
  nl.mark_output(out);
  nl.mark_output(out);
  EXPECT_EQ(nl.num_outputs(), 1);
}

TEST(WideGateTest, SmallAritiesPassThrough) {
  Netlist nl("w");
  std::vector<NodeId> ins;
  for (int i = 0; i < 3; ++i) ins.push_back(nl.add_input(input_name(i)));
  const NodeId out = build_wide_gate(nl, GateFn::Nand, ins, "g");
  nl.mark_output(out);
  EXPECT_EQ(nl.num_gates(), 1);
  EXPECT_EQ(nl.gates()[0].fn, GateFn::Nand);
}

TEST(WideGateTest, WideAndBecomesTree) {
  Netlist nl("w");
  std::vector<NodeId> ins;
  for (int i = 0; i < 10; ++i) {
    ins.push_back(nl.add_input(input_name(i)));
  }
  const NodeId out = build_wide_gate(nl, GateFn::And, ins, "g");
  nl.mark_output(out);
  EXPECT_GT(nl.num_gates(), 1);
  for (const Gate& g : nl.gates()) {
    EXPECT_LE(g.fanins.size(), 4u);
  }
  EXPECT_NO_THROW(nl.validate());
}

TEST(WideGateTest, WideNandPreservesPolarity) {
  // NAND over 6 inputs: result must equal NOT(AND(all)).
  Netlist nl("w");
  std::vector<NodeId> ins;
  for (int i = 0; i < 6; ++i) {
    ins.push_back(nl.add_input(input_name(i)));
  }
  const NodeId out = build_wide_gate(nl, GateFn::Nand, ins, "g");
  nl.mark_output(out);
  // Count inversions along construction by evaluating the truth function
  // structurally: final gate must be NAND or NOT.
  const Gate& last = nl.gates().back();
  EXPECT_TRUE(last.fn == GateFn::Nand || last.fn == GateFn::Not);
}

TEST(WideGateTest, WideXnorEndsInverted) {
  Netlist nl("w");
  std::vector<NodeId> ins;
  for (int i = 0; i < 5; ++i) {
    ins.push_back(nl.add_input(input_name(i)));
  }
  const NodeId out = build_wide_gate(nl, GateFn::Xnor, ins, "g");
  nl.mark_output(out);
  const Gate& last = nl.gates().back();
  EXPECT_TRUE(last.fn == GateFn::Not || last.fn == GateFn::Xnor);
}

TEST(WideGateTest, RejectsEmptyFanins) {
  Netlist nl("w");
  EXPECT_THROW(build_wide_gate(nl, GateFn::And, {}, "g"),
               std::invalid_argument);
}

}  // namespace
}  // namespace nbtisim::netlist
