// Unit tests for the .bench reader/writer (src/netlist/bench_io.*).

#include "netlist/bench_io.h"

#include <gtest/gtest.h>

#include <fstream>

#include "sim/simulator.h"
#include "support/temp_store.h"

namespace nbtisim::netlist {
namespace {

constexpr const char* kSmall = R"(
# a tiny circuit
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G8)
G5 = NAND(G1, G2)
G8 = OR(G5, G7)
G7 = NOT(G3)
)";

TEST(BenchIoTest, ParsesOutOfOrderDefinitions) {
  const Netlist nl = parse_bench(kSmall, "small");
  EXPECT_EQ(nl.num_inputs(), 3);
  EXPECT_EQ(nl.num_outputs(), 1);
  EXPECT_EQ(nl.num_gates(), 3);
  EXPECT_NO_THROW(nl.validate());
  // G7 = NOT(G3) appears after its use but must be instantiated before G8.
  EXPECT_LT(nl.driver_gate(nl.find_node("G7")), nl.driver_gate(nl.find_node("G8")));
}

TEST(BenchIoTest, CommentsAndBlankLinesIgnored) {
  const Netlist nl = parse_bench("# only\n\nINPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n", "c");
  EXPECT_EQ(nl.num_gates(), 1);
  EXPECT_EQ(nl.gates()[0].fn, tech::GateFn::Buf);
}

TEST(BenchIoTest, GateTypeAliases) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\n"
      "x = inv(a)\ny = xnor(a, b)\n",
      "c");
  EXPECT_EQ(nl.gates()[0].fn, tech::GateFn::Not);
  EXPECT_EQ(nl.gates()[1].fn, tech::GateFn::Xnor);
}

TEST(BenchIoTest, RejectsDff) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n", "seq"),
               std::invalid_argument);
}

TEST(BenchIoTest, CutDffsMakesCombinationalCore) {
  // An ISCAS89-style loop: q = DFF(next); next = XOR(a, q).
  constexpr const char* kSeq = R"(
INPUT(a)
OUTPUT(out)
q = DFF(next)
next = XOR(a, q)
out = NOT(next)
)";
  const Netlist nl = parse_bench(kSeq, "seq", {.cut_dffs = true});
  // q becomes a pseudo PI, next a pseudo PO.
  EXPECT_EQ(nl.num_inputs(), 2);   // a + q
  EXPECT_EQ(nl.num_outputs(), 2);  // out + next
  EXPECT_NO_THROW(nl.validate());
  sim::Simulator sim(nl);
  // PI order: a, q. next = a XOR q; out = !next.
  const std::vector<bool> values = sim.evaluate({true, true});
  EXPECT_FALSE(values[nl.find_node("next")]);
  EXPECT_TRUE(values[nl.find_node("out")]);
}

TEST(BenchIoTest, CutDffsRejectsMultiInputDff) {
  EXPECT_THROW(parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n",
                           "seq", {.cut_dffs = true}),
               std::invalid_argument);
}

TEST(BenchIoTest, CutDffsRejectsUndrivenD) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n", "seq",
                           {.cut_dffs = true}),
               std::invalid_argument);
}

TEST(BenchIoTest, SequentialCircuitFeedsTheFullFlow) {
  // The cut netlist is a normal combinational circuit for every analysis.
  constexpr const char* kSeq = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
s0 = DFF(n1)
s1 = DFF(n2)
n1 = NAND(a, s1)
n2 = NOR(b, s0)
y = XOR(n1, n2)
)";
  const Netlist nl = parse_bench(kSeq, "seq2", {.cut_dffs = true});
  EXPECT_EQ(nl.num_inputs(), 4);   // a, b, s0, s1
  EXPECT_EQ(nl.num_outputs(), 3);  // y, n1, n2
  EXPECT_NO_THROW(nl.validate());
}

TEST(BenchIoTest, RejectsUnknownGate) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "c"),
               std::invalid_argument);
}

TEST(BenchIoTest, RejectsUndrivenNet) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", "c"),
               std::invalid_argument);
}

TEST(BenchIoTest, RejectsUndrivenOutput) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n", "c"),
               std::invalid_argument);
}

TEST(BenchIoTest, RejectsCombinationalCycle) {
  EXPECT_THROW(parse_bench(
                   "INPUT(a)\nOUTPUT(x)\n"
                   "x = AND(a, y)\ny = NOT(x)\n",
                   "cyc"),
               std::invalid_argument);
}

TEST(BenchIoTest, RejectsDoubleDrive) {
  EXPECT_THROW(parse_bench(
                   "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUFF(a)\n", "dd"),
               std::invalid_argument);
}

TEST(BenchIoTest, RejectsMalformedLines) {
  EXPECT_THROW(parse_bench("INPUT a\n", "m"), std::invalid_argument);
  EXPECT_THROW(parse_bench("x NAND(a, b)\n", "m"), std::invalid_argument);
  EXPECT_THROW(parse_bench("INPUT(a)\nx = NAND(a, )\n", "m"),
               std::invalid_argument);
}

TEST(BenchIoTest, WideGatesAreDecomposed) {
  std::string text = "OUTPUT(y)\n";
  std::string args;
  for (int i = 0; i < 7; ++i) {
    text += "INPUT(i" + std::to_string(i) + ")\n";
    args += (i ? ", i" : "i") + std::to_string(i);
  }
  text += "y = NAND(" + args + ")\n";
  const Netlist nl = parse_bench(text, "wide");
  EXPECT_GT(nl.num_gates(), 1);
  for (const Gate& g : nl.gates()) EXPECT_LE(g.fanins.size(), 4u);
  EXPECT_NO_THROW(nl.validate());
  // Semantics: all-ones input -> NAND = 0, any zero -> 1.
  sim::Simulator s(nl);
  EXPECT_FALSE(s.outputs(std::vector<bool>(7, true))[0]);
  std::vector<bool> one_zero(7, true);
  one_zero[3] = false;
  EXPECT_TRUE(s.outputs(one_zero)[0]);
}

TEST(BenchIoTest, RoundTripPreservesSemantics) {
  const Netlist a = parse_bench(kSmall, "small");
  const Netlist b = parse_bench(write_bench(a), "small2");
  EXPECT_EQ(a.num_inputs(), b.num_inputs());
  EXPECT_EQ(a.num_outputs(), b.num_outputs());
  sim::Simulator sa(a), sb(b);
  for (std::uint32_t v = 0; v < 8; ++v) {
    std::vector<bool> pi{(v & 1) != 0, (v & 2) != 0, (v & 4) != 0};
    EXPECT_EQ(sa.outputs(pi), sb.outputs(pi)) << "vector " << v;
  }
}

TEST(BenchIoTest, LoadBenchReadsFromDisk) {
  const std::string path = testsupport::temp_path("nbtisim_test.bench");
  {
    std::ofstream f(path);
    f << kSmall;
  }
  const Netlist nl = load_bench(path);
  // The netlist is named after the file stem, pid prefix included.
  EXPECT_EQ(nl.name(), std::to_string(::getpid()) + "_nbtisim_test");
  EXPECT_EQ(nl.num_gates(), 3);
}

TEST(BenchIoTest, LoadBenchMissingFileThrows) {
  EXPECT_THROW(load_bench("/nonexistent/missing.bench"), std::runtime_error);
}

}  // namespace
}  // namespace nbtisim::netlist
