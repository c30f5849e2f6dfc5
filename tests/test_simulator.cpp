// Unit tests for the logic simulator and signal statistics (src/sim/*).

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "analysis/context.h"
#include "netlist/generators.h"
#include "support/reference.h"

namespace nbtisim::sim {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using tech::GateFn;

TEST(EvalGateTest, AllFunctionsOnTwoInputs) {
  // Net 0 carries input a and net 1 input b; bit v of each word is vector v.
  const std::uint64_t value[] = {0b1010, 0b1100};
  const NodeId ab[] = {0, 1};
  for (std::uint32_t v = 0; v < 4; ++v) {
    const bool a = v & 1, b = (v >> 1) & 1;
    auto bit = [&](GateFn fn) {
      return ((eval_gate(fn, ab, value) >> v) & 1ull) != 0;
    };
    EXPECT_EQ(bit(GateFn::And), a && b);
    EXPECT_EQ(bit(GateFn::Nand), !(a && b));
    EXPECT_EQ(bit(GateFn::Or), a || b);
    EXPECT_EQ(bit(GateFn::Nor), !(a || b));
    EXPECT_EQ(bit(GateFn::Xor), a != b);
    EXPECT_EQ(bit(GateFn::Xnor), a == b);
  }
  const std::uint64_t one[] = {~0ull};
  const NodeId in[] = {0};
  EXPECT_EQ(eval_gate(GateFn::Not, in, one) & 1ull, 0ull);
  EXPECT_EQ(eval_gate(GateFn::Buf, in, one) & 1ull, 1ull);
  EXPECT_THROW(eval_gate(GateFn::And, {}, one), std::invalid_argument);
}

TEST(SimulatorTest, EvaluateMatchesHandComputation) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId x = nl.add_gate(GateFn::Nand, {a, b}, "x");
  const NodeId y = nl.add_gate(GateFn::Xor, {x, c}, "y");
  nl.mark_output(y);
  Simulator sim(nl);
  for (std::uint32_t v = 0; v < 8; ++v) {
    const bool av = v & 1, bv = (v >> 1) & 1, cv = (v >> 2) & 1;
    const std::vector<bool> value = sim.evaluate({av, bv, cv});
    EXPECT_EQ(value[x], !(av && bv));
    EXPECT_EQ(value[y], (!(av && bv)) != cv);
  }
}

TEST(SimulatorTest, EvaluateRejectsWrongPiCount) {
  const Netlist nl = netlist::make_parity_tree("p", 4);
  Simulator sim(nl);
  EXPECT_THROW(sim.evaluate(std::vector<bool>(3)), std::invalid_argument);
}

TEST(SimulatorTest, WordEvaluationMatchesScalar) {
  const Netlist nl = netlist::make_alu("alu", 4);
  Simulator sim(nl);
  std::mt19937_64 rng(17);
  std::vector<std::uint64_t> words(nl.num_inputs());
  for (auto& w : words) w = rng();
  const std::vector<std::uint64_t> wv = sim.evaluate_words(words);
  for (int bit = 0; bit < 64; bit += 7) {
    std::vector<bool> pi(nl.num_inputs());
    for (int i = 0; i < nl.num_inputs(); ++i) {
      pi[i] = (words[i] >> bit) & 1ull;
    }
    const std::vector<bool> sv = testsupport::reference_evaluate_forced(nl, pi);
    for (int n = 0; n < nl.num_nodes(); ++n) {
      EXPECT_EQ(((wv[n] >> bit) & 1ull) != 0, sv[n] != false)
          << "node " << n << " bit " << bit;
    }
  }
}

// The word loop against the scalar oracle, which keeps one boolean per net
// and applies each force as that net's value is set: evaluate and
// evaluate_forced per vector, with random forces on PIs and on gate outputs
// (a net forced twice keeps its last force), and bit k of evaluate_words
// against vector k.
TEST(SimulatorDifferentialTest, WordKernelMatchesScalarReference) {
  // Index of the first net on which two evaluations differ, -1 if none.
  auto first_difference = [](const std::vector<bool>& got,
                             const std::vector<bool>& want) {
    if (got.size() != want.size()) return -2;
    for (std::size_t n = 0; n < got.size(); ++n) {
      if (got[n] != want[n]) return static_cast<int>(n);
    }
    return -1;
  };
  std::mt19937_64 rng(29);
  for (const char* spec : {"dag:8x60@3", "dag:12x200@1", "dag:24x400@2",
                           "c432", "mult:8", "alu:8"}) {
    SCOPED_TRACE(spec);
    const Netlist nl = analysis::load_netlist_spec(spec, false);
    const Simulator sim(nl);
    std::vector<std::uint64_t> words(nl.num_inputs());
    for (std::uint64_t& w : words) w = rng();
    const std::vector<std::uint64_t> wv = sim.evaluate_words(words);
    int forced_pis = 0;
    int forced_gates = 0;
    for (int k = 0; k < 64; ++k) {
      SCOPED_TRACE(::testing::Message() << "vector " << k);
      std::vector<bool> pi(nl.num_inputs());
      for (int i = 0; i < nl.num_inputs(); ++i) pi[i] = (words[i] >> k) & 1ull;
      const std::vector<bool> want =
          testsupport::reference_evaluate_forced(nl, pi);
      std::vector<bool> bit_k(nl.num_nodes());
      for (int n = 0; n < nl.num_nodes(); ++n) bit_k[n] = (wv[n] >> k) & 1ull;
      EXPECT_EQ(first_difference(bit_k, want), -1) << "evaluate_words";
      EXPECT_EQ(first_difference(sim.evaluate(pi), want), -1) << "evaluate";

      std::vector<std::pair<NodeId, bool>> forces;
      const int n_forces = 1 + static_cast<int>(rng() % 6);
      for (int f = 0; f < n_forces; ++f) {
        const bool on_pi = rng() & 1;
        const NodeId node =
            on_pi ? nl.inputs()[rng() % nl.num_inputs()]
                  : nl.gate(static_cast<int>(rng() % nl.num_gates())).output;
        forces.emplace_back(node, (rng() & 1) != 0);
        ++(on_pi ? forced_pis : forced_gates);
      }
      if (rng() & 1) forces.emplace_back(forces[0].first, !forces[0].second);
      EXPECT_EQ(first_difference(sim.evaluate_forced(pi, forces),
                                 testsupport::reference_evaluate_forced(
                                     nl, pi, forces)),
                -1)
          << "evaluate_forced";
    }
    EXPECT_GT(forced_pis, 0);
    EXPECT_GT(forced_gates, 0);
    for (NodeId bad : {-1, nl.num_nodes()}) {
      const std::pair<NodeId, bool> force{bad, true};
      EXPECT_THROW(sim.evaluate_forced(std::vector<bool>(nl.num_inputs()),
                                       {&force, 1}),
                   std::invalid_argument);
    }
  }
}

TEST(SignalStatsTest, InputProbabilitiesAreRespected) {
  const Netlist nl = netlist::make_parity_tree("p", 3);
  std::vector<double> sp{0.1, 0.5, 0.9};
  const SignalStats st = estimate_signal_stats(nl, sp, 20000, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(st.probability[nl.inputs()[i]], sp[i], 0.02) << i;
  }
}

TEST(SignalStatsTest, ParityOfFairInputsIsHalf) {
  const Netlist nl = netlist::make_parity_tree("p", 8);
  const std::vector<double> sp(8, 0.5);
  const SignalStats st = estimate_signal_stats(nl, sp, 20000, 2);
  EXPECT_NEAR(st.probability[nl.outputs()[0]], 0.5, 0.02);
}

TEST(SignalStatsTest, NandOutputProbabilityMatchesTheory) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(GateFn::Nand, {a, b}, "x");
  nl.mark_output(x);
  const std::vector<double> sp{0.5, 0.5};
  const SignalStats st = estimate_signal_stats(nl, sp, 50000, 3);
  EXPECT_NEAR(st.probability[x], 0.75, 0.01);
}

TEST(SignalStatsTest, ActivityOfIndependentFairNodeIsHalf) {
  // Consecutive random vectors: P(toggle) = 2 p (1-p) = 0.5 at p = 0.5.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId x = nl.add_gate(GateFn::Not, {a}, "x");
  nl.mark_output(x);
  const SignalStats st =
      estimate_signal_stats(nl, std::vector<double>{0.5}, 50000, 4);
  EXPECT_NEAR(st.activity[x], 0.5, 0.02);
}

TEST(SignalStatsTest, DeterministicForFixedSeed) {
  const Netlist nl = netlist::make_alu("alu", 4);
  const std::vector<double> sp(nl.num_inputs(), 0.5);
  const SignalStats a = estimate_signal_stats(nl, sp, 4096, 9);
  const SignalStats b = estimate_signal_stats(nl, sp, 4096, 9);
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.activity, b.activity);
}

TEST(SignalStatsTest, RejectsBadInputs) {
  const Netlist nl = netlist::make_parity_tree("p", 4);
  EXPECT_THROW(estimate_signal_stats(nl, std::vector<double>(3, 0.5), 100, 1),
               std::invalid_argument);
  EXPECT_THROW(estimate_signal_stats(nl, std::vector<double>(4, 1.5), 100, 1),
               std::invalid_argument);
  EXPECT_THROW(estimate_signal_stats(nl, std::vector<double>(4, 0.5), 0, 1),
               std::invalid_argument);
}

TEST(SignalStatsTest, ProbabilitiesAreProbabilities) {
  const Netlist nl = netlist::iscas85_like("c432");
  const std::vector<double> sp(nl.num_inputs(), 0.5);
  const SignalStats st = estimate_signal_stats(nl, sp, 2048, 5);
  for (int n = 0; n < nl.num_nodes(); ++n) {
    EXPECT_GE(st.probability[n], 0.0);
    EXPECT_LE(st.probability[n], 1.0);
    EXPECT_GE(st.activity[n], 0.0);
    EXPECT_LE(st.activity[n], 1.0);
  }
}

// Degenerate input probabilities force constant nodes.
class ConstantInputSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConstantInputSweep, SaturatedInputsGiveSaturatedNodes) {
  const double p = GetParam();
  const Netlist nl = netlist::make_parity_tree("p", 5);
  const std::vector<double> sp(5, p);
  const SignalStats st = estimate_signal_stats(nl, sp, 1024, 6);
  for (NodeId in : nl.inputs()) {
    EXPECT_DOUBLE_EQ(st.probability[in], p);
    EXPECT_DOUBLE_EQ(st.activity[in], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Saturated, ConstantInputSweep,
                         ::testing::Values(0.0, 1.0));

}  // namespace
}  // namespace nbtisim::sim
