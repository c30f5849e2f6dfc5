// Unit tests for the probability-based MLV search (src/opt/mlv.*).

#include "opt/mlv.h"

#include <gtest/gtest.h>

#include <random>

#include "common/pool.h"
#include "netlist/generators.h"

namespace nbtisim::opt {
namespace {

using leakage::LeakageAnalyzer;

class MlvTest : public ::testing::Test {
 protected:
  tech::Library lib_;
};

TEST_F(MlvTest, FindsSomethingOnSmallCircuit) {
  const netlist::Netlist nl = netlist::make_ripple_adder("add4", 4);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  const MlvResult r = find_mlv_set(an);
  ASSERT_FALSE(r.vectors.empty());
  EXPECT_EQ(r.vectors.size(), r.leakages.size());
  EXPECT_GT(r.min_leakage(), 0.0);
  // Set is sorted ascending by leakage.
  for (std::size_t i = 1; i < r.leakages.size(); ++i) {
    EXPECT_GE(r.leakages[i], r.leakages[i - 1]);
  }
}

TEST_F(MlvTest, SetRespectsLeakageWindow) {
  const netlist::Netlist nl = netlist::make_alu("alu", 4);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  MlvSearchParams p;
  p.leakage_window = 0.04;
  const MlvResult r = find_mlv_set(an, p);
  for (double l : r.leakages) {
    EXPECT_LE(l, r.min_leakage() * 1.04 + 1e-18);
  }
}

TEST_F(MlvTest, LeakagesMatchIndependentEvaluation) {
  const netlist::Netlist nl = netlist::make_parity_tree("p", 6);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  const MlvResult r = find_mlv_set(an);
  for (std::size_t i = 0; i < r.vectors.size(); ++i) {
    EXPECT_NEAR(an.circuit_leakage(r.vectors[i]), r.leakages[i], 1e-18);
  }
}

TEST_F(MlvTest, HeuristicApproachesExhaustiveOptimum) {
  // 8-input adder: 2^9 = 512 vectors, exhaustive is cheap.
  const netlist::Netlist nl = netlist::make_ripple_adder("add4", 4);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  const MlvResult heur = find_mlv_set(an, {.population = 128, .max_rounds = 30});
  const MlvResult exact = find_mlv_exhaustive(an);
  // Paper's heuristic claim: within a few percent of the optimum.
  EXPECT_LE(heur.min_leakage(), exact.min_leakage() * 1.10);
  EXPECT_GE(heur.min_leakage(), exact.min_leakage() * (1.0 - 1e-12));
}

TEST_F(MlvTest, MlvBeatsAverageRandomVector) {
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  const LeakageAnalyzer an(nl, lib_, 330.0);
  const MlvResult r = find_mlv_set(an);
  std::mt19937_64 rng(21);
  double sum = 0.0;
  const int kTrials = 64;
  for (int k = 0; k < kTrials; ++k) {
    std::vector<bool> v(nl.num_inputs());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = (rng() & 1) != 0;
    sum += an.circuit_leakage(v);
  }
  EXPECT_LT(r.min_leakage(), sum / kTrials);
}

TEST_F(MlvTest, DeterministicForFixedSeed) {
  const netlist::Netlist nl = netlist::make_alu("alu", 4);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  const MlvResult a = find_mlv_set(an);
  const MlvResult b = find_mlv_set(an);
  EXPECT_EQ(a.vectors, b.vectors);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST_F(MlvTest, BitIdenticalAcrossThreadCounts) {
  // Vector generation stays a single sequential stream; only the leakage
  // evaluations fan out, and insertion runs in generation order — so the
  // search is bit-identical for any thread count.
  const netlist::Netlist nl = netlist::make_alu("alu", 4);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  const MlvSearchParams p;
  MlvResult serial, serial_ex;
  {
    const common::ThreadBudget one(1);
    serial = find_mlv_set(an, p);
    serial_ex = find_mlv_exhaustive(an, 0.04, 24);
  }
  for (int n : {2, 8}) {
    const common::ThreadBudget budget(n);
    const MlvResult r = find_mlv_set(an, p);
    EXPECT_EQ(r.vectors, serial.vectors) << n;
    EXPECT_EQ(r.leakages, serial.leakages) << n;
    EXPECT_EQ(r.rounds, serial.rounds) << n;
    EXPECT_EQ(r.converged, serial.converged) << n;
    const MlvResult ex = find_mlv_exhaustive(an, 0.04, 24);
    EXPECT_EQ(ex.vectors, serial_ex.vectors) << n;
    EXPECT_EQ(ex.leakages, serial_ex.leakages) << n;
  }
}

TEST_F(MlvTest, InputProbabilitiesAreWellFormed) {
  const netlist::Netlist nl = netlist::make_alu("alu", 4);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  const MlvResult r = find_mlv_set(an);
  ASSERT_EQ(r.input_probabilities.size(),
            static_cast<std::size_t>(nl.num_inputs()));
  for (double p : r.input_probabilities) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(MlvTest, RejectsBadParams) {
  const netlist::Netlist nl = netlist::make_parity_tree("p", 4);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  EXPECT_THROW(find_mlv_set(an, {.population = 1}), std::invalid_argument);
  EXPECT_THROW(find_mlv_set(an, {.max_rounds = 0}), std::invalid_argument);
  EXPECT_THROW(find_mlv_set(an, {.leakage_window = -0.1}),
               std::invalid_argument);
}

TEST_F(MlvTest, ExhaustiveRejectsWideCircuits) {
  const netlist::Netlist nl = netlist::iscas85_like("c432");  // 36 inputs
  const LeakageAnalyzer an(nl, lib_, 330.0);
  EXPECT_THROW(find_mlv_exhaustive(an), std::invalid_argument);
}

TEST_F(MlvTest, ExhaustiveFindsTheTrueMinimumOnTinyCircuit) {
  const netlist::Netlist nl = netlist::make_parity_tree("p", 5);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  const MlvResult r = find_mlv_exhaustive(an);
  // Brute-force check.
  double best = 1e9;
  for (std::uint32_t bits = 0; bits < 32; ++bits) {
    std::vector<bool> v(5);
    for (int i = 0; i < 5; ++i) v[i] = (bits >> i) & 1u;
    best = std::min(best, an.circuit_leakage(v));
  }
  EXPECT_NEAR(r.min_leakage(), best, 1e-18);
}

// MLV quality must hold across standby temperatures.
class MlvTempSweep : public ::testing::TestWithParam<double> {};

TEST_P(MlvTempSweep, MinimumWithinWindowOfExhaustive) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::make_ripple_adder("a", 3);
  const LeakageAnalyzer an(nl, lib, GetParam());
  const MlvResult heur = find_mlv_set(an, {.population = 96});
  const MlvResult exact = find_mlv_exhaustive(an);
  EXPECT_LE(heur.min_leakage(), exact.min_leakage() * 1.10);
}

INSTANTIATE_TEST_SUITE_P(Temps, MlvTempSweep,
                         ::testing::Values(300.0, 330.0, 370.0, 400.0));

}  // namespace
}  // namespace nbtisim::opt
