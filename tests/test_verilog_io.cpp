// Unit tests for the structural Verilog reader/writer
// (src/netlist/verilog_io.*).

#include "netlist/verilog_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <random>

#include "netlist/bench_io.h"
#include "netlist/generators.h"
#include "sim/simulator.h"
#include "support/temp_store.h"

namespace nbtisim::netlist {
namespace {

constexpr const char* kC17 = R"(
// ISCAS85 c17 in structural verilog
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7;
  output N22, N23;
  wire N10, N11, N16, N19;
  nand g0 (N10, N1, N3);
  nand g1 (N11, N3, N6);
  nand g2 (N16, N2, N11);
  nand g3 (N19, N11, N7);
  nand g4 (N22, N10, N16);
  nand g5 (N23, N16, N19);
endmodule
)";

TEST(VerilogIoTest, ParsesC17) {
  const Netlist nl = parse_verilog(kC17);
  EXPECT_EQ(nl.name(), "c17");
  EXPECT_EQ(nl.num_inputs(), 5);
  EXPECT_EQ(nl.num_outputs(), 2);
  EXPECT_EQ(nl.num_gates(), 6);
  EXPECT_NO_THROW(nl.validate());
}

TEST(VerilogIoTest, C17FunctionIsCorrect) {
  const Netlist nl = parse_verilog(kC17);
  sim::Simulator sim(nl);
  // N22 = !(N10 & N16); with all inputs 0: N10=1, N11=1, N16=1 -> N22=0.
  const std::vector<bool> all0(5, false);
  const std::vector<bool> v = sim.evaluate(all0);
  EXPECT_FALSE(v[nl.find_node("N22")]);
  // All inputs 1: N10=0, N11=0, N16=1, N19=1 -> N22=NAND(0,1)=1,
  // N23=NAND(1,1)=0.
  const std::vector<bool> all1(5, true);
  const std::vector<bool> w = sim.evaluate(all1);
  EXPECT_TRUE(w[nl.find_node("N22")]);
  EXPECT_FALSE(w[nl.find_node("N23")]);
}

TEST(VerilogIoTest, VectorDeclarationsExpand) {
  constexpr const char* kVec = R"(
module vec (a, y);
  input [3:0] a;
  output y;
  wire n0, n1;
  and g0 (n0, a[0], a[1]);
  and g1 (n1, a[2], a[3]);
  or  g2 (y, n0, n1);
endmodule
)";
  const Netlist nl = parse_verilog(kVec);
  EXPECT_EQ(nl.num_inputs(), 4);
  EXPECT_TRUE(nl.has_node("a[0]"));
  EXPECT_TRUE(nl.has_node("a[3]"));
  sim::Simulator sim(nl);
  // PI order follows declaration expansion (a[0]..a[3]).
  EXPECT_TRUE(sim.outputs({true, true, false, false})[0]);
  EXPECT_FALSE(sim.outputs({true, false, false, true})[0]);
}

TEST(VerilogIoTest, InstanceNameIsOptional) {
  const Netlist nl = parse_verilog(
      "module m (a, y);\n input a;\n output y;\n not (y, a);\nendmodule\n");
  EXPECT_EQ(nl.num_gates(), 1);
  EXPECT_EQ(nl.gates()[0].fn, tech::GateFn::Not);
}

TEST(VerilogIoTest, BlockCommentsStripped) {
  const Netlist nl = parse_verilog(
      "module m (a, y); /* ports */ input a; output y;\n"
      "buf g /* inline */ (y, a); endmodule");
  EXPECT_EQ(nl.num_gates(), 1);
}

TEST(VerilogIoTest, OutOfOrderDefinitionsAccepted) {
  const Netlist nl = parse_verilog(
      "module m (a, y);\n input a;\n output y;\n wire n;\n"
      " not g1 (y, n);\n not g0 (n, a);\nendmodule\n");
  EXPECT_EQ(nl.num_gates(), 2);
  EXPECT_NO_THROW(nl.validate());
}

TEST(VerilogIoTest, WideGatesDecompose) {
  std::string src = "module m (y";
  for (int i = 0; i < 6; ++i) src += ", i" + std::to_string(i);
  src += ");\n output y;\n";
  for (int i = 0; i < 6; ++i) src += " input i" + std::to_string(i) + ";\n";
  src += " nand g (y, i0, i1, i2, i3, i4, i5);\nendmodule\n";
  const Netlist nl = parse_verilog(src);
  for (const Gate& g : nl.gates()) EXPECT_LE(g.fanins.size(), 4u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(VerilogIoTest, RejectsBadInput) {
  EXPECT_THROW(parse_verilog("not (y, a);"), std::invalid_argument);  // no module
  EXPECT_THROW(parse_verilog("module m (y); output y; frob (y); endmodule"),
               std::invalid_argument);
  EXPECT_THROW(parse_verilog("module m (a); input a; assign b = a; endmodule"),
               std::invalid_argument);
  EXPECT_THROW(parse_verilog("module m (a, y); input a; output y;\n"
                             "not (y, ghost); endmodule"),
               std::invalid_argument);
  EXPECT_THROW(parse_verilog("module a (x); module b (y); endmodule endmodule"),
               std::invalid_argument);
  EXPECT_THROW(parse_verilog("/* unterminated\nmodule m (); endmodule"),
               std::invalid_argument);
  EXPECT_THROW(parse_verilog("module m (a, y); input a; output y;\n"
                             "not g (y); endmodule"),
               std::invalid_argument);
}

TEST(VerilogIoTest, RoundTripPreservesSemantics) {
  const Netlist orig = make_alu("alu", 4);
  const Netlist back = parse_verilog(write_verilog(orig));
  EXPECT_EQ(back.name(), "alu");
  ASSERT_EQ(orig.num_inputs(), back.num_inputs());
  ASSERT_EQ(orig.num_outputs(), back.num_outputs());
  sim::Simulator so(orig), sb(back);
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<bool> pi(orig.num_inputs());
    for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = (rng() & 1) != 0;
    EXPECT_EQ(so.outputs(pi), sb.outputs(pi)) << "trial " << trial;
  }
}

TEST(VerilogIoTest, BenchAndVerilogAgree) {
  // The same circuit through both formats must be identical in function.
  const Netlist gen = make_ripple_adder("add", 3);
  const Netlist via_v = parse_verilog(write_verilog(gen));
  const Netlist via_b = parse_bench(write_bench(gen), "add");
  sim::Simulator sv(via_v), sb(via_b);
  for (std::uint32_t bits = 0; bits < 128; ++bits) {
    std::vector<bool> pi(7);
    for (int i = 0; i < 7; ++i) pi[i] = (bits >> i) & 1u;
    EXPECT_EQ(sv.outputs(pi), sb.outputs(pi));
  }
}

// Round-trip property sweep: generated circuits of every family survive
// write -> parse in both formats across seeds, preserving the interface
// (PI/PO counts), the topology depth and the Boolean function.
TEST(VerilogIoTest, GeneratedCircuitsRoundTripAcrossSeeds) {
  std::mt19937_64 rng(99);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Netlist orig = make_random_dag(
        "rt" + std::to_string(seed),
        {.n_inputs = 6 + static_cast<int>(seed),
         .n_outputs = 4,
         .n_gates = 50 + 25 * static_cast<int>(seed),
         .seed = seed});
    const Netlist via_v = parse_verilog(write_verilog(orig));
    const Netlist via_b = parse_bench(write_bench(orig), orig.name());
    for (const Netlist* back : {&via_v, &via_b}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      ASSERT_EQ(back->num_inputs(), orig.num_inputs());
      ASSERT_EQ(back->num_outputs(), orig.num_outputs());
      ASSERT_EQ(back->num_gates(), orig.num_gates());
      EXPECT_EQ(back->depth(), orig.depth());
    }
    sim::Simulator so(orig), sv(via_v), sb(via_b);
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<bool> pi(orig.num_inputs());
      for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = (rng() & 1) != 0;
      const std::vector<bool> want = so.outputs(pi);
      EXPECT_EQ(sv.outputs(pi), want) << "verilog seed " << seed;
      EXPECT_EQ(sb.outputs(pi), want) << "bench seed " << seed;
    }
  }
}

TEST(VerilogIoTest, LoadVerilogMissingFileThrows) {
  EXPECT_THROW(load_verilog("/nonexistent/x.v"), std::runtime_error);
}

TEST(VerilogIoTest, LoadVerilogFromDisk) {
  const std::string path = testsupport::temp_path("nbtisim_test.v");
  {
    std::ofstream f(path);
    f << kC17;
  }
  const Netlist nl = load_verilog(path);
  EXPECT_EQ(nl.num_gates(), 6);
}

}  // namespace
}  // namespace nbtisim::netlist
