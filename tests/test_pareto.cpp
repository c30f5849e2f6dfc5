// Unit tests for Pareto co-optimization of standby vectors (src/opt/pareto.*)
// and statistical gate criticality (src/variation/criticality.*).

#include "opt/pareto.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/pool.h"
#include "netlist/generators.h"
#include "variation/criticality.h"

namespace nbtisim {
namespace {

class ParetoTest : public ::testing::Test {
 protected:
  ParetoTest() : c432_(netlist::iscas85_like("c432")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 5, 600.0, 400.0, 400.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c432_, lib_, cond_);
    leak_.emplace(c432_, lib_, 330.0);
  }

  opt::ParetoResult run(opt::ParetoParams p = {.random_samples = 24,
                                               .improve_rounds = 2,
                                               .flips_per_member = 4}) {
    return opt::pareto_standby_vectors(*analyzer_, *leak_, p);
  }

  tech::Library lib_;
  netlist::Netlist c432_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
  std::optional<leakage::LeakageAnalyzer> leak_;
};

TEST_F(ParetoTest, FrontIsNonDominatedAndSorted) {
  const opt::ParetoResult r = run();
  ASSERT_GE(r.front.size(), 1u);
  for (std::size_t i = 1; i < r.front.size(); ++i) {
    EXPECT_GT(r.front[i].leakage, r.front[i - 1].leakage);
    // Ascending leakage must mean descending degradation on a clean front.
    EXPECT_LT(r.front[i].degradation_percent,
              r.front[i - 1].degradation_percent);
  }
  EXPECT_GT(r.evaluated, 20);
}

TEST_F(ParetoTest, EndpointsAreConsistent) {
  const opt::ParetoResult r = run();
  EXPECT_LE(r.min_leakage().leakage, r.min_degradation().leakage);
  EXPECT_GE(r.min_leakage().degradation_percent,
            r.min_degradation().degradation_percent);
}

TEST_F(ParetoTest, PointsMatchIndependentEvaluation) {
  const opt::ParetoResult r = run();
  const opt::ParetoPoint& p = r.front.front();
  EXPECT_NEAR(leak_->circuit_leakage(p.vector), p.leakage, 1e-18);
  EXPECT_NEAR(
      analyzer_->analyze(aging::StandbyPolicy::from_vector(p.vector)).percent(),
      p.degradation_percent, 1e-9);
}

TEST_F(ParetoTest, PickInterpolatesTheTradeoff) {
  const opt::ParetoResult r = run();
  const opt::ParetoPoint& leaky = r.pick(1.0);
  const opt::ParetoPoint& agey = r.pick(0.0);
  EXPECT_DOUBLE_EQ(leaky.leakage, r.min_leakage().leakage);
  EXPECT_DOUBLE_EQ(agey.degradation_percent,
                   r.min_degradation().degradation_percent);
  EXPECT_THROW(r.pick(1.5), std::invalid_argument);
}

TEST_F(ParetoTest, HotStandbyWidensTheFront) {
  // At 400 K standby, the degradation axis is meaningful (the paper's IVC
  // conclusion inverts at hot standby).
  const opt::ParetoResult r = run();
  EXPECT_GT(r.degradation_range(), 0.05);
}

TEST_F(ParetoTest, DeterministicPerSeed) {
  const opt::ParetoResult a = run();
  const opt::ParetoResult b = run();
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].vector, b.front[i].vector);
  }
}

TEST_F(ParetoTest, BitIdenticalAcrossThreadCounts) {
  // Candidates are generated by one sequential RNG stream and the front is
  // folded in generation order, so every thread count reproduces the serial
  // front evolution exactly.
  const opt::ParetoParams p{.random_samples = 24, .improve_rounds = 2,
                            .flips_per_member = 4};
  opt::ParetoResult serial;
  {
    const common::ThreadBudget one(1);
    serial = run(p);
  }
  for (int n : {2, 8}) {
    const common::ThreadBudget budget(n);
    const opt::ParetoResult r = run(p);
    EXPECT_EQ(r.evaluated, serial.evaluated) << n;
    ASSERT_EQ(r.front.size(), serial.front.size()) << n;
    for (std::size_t i = 0; i < r.front.size(); ++i) {
      EXPECT_EQ(r.front[i].vector, serial.front[i].vector);
      EXPECT_EQ(r.front[i].leakage, serial.front[i].leakage);
      EXPECT_EQ(r.front[i].degradation_percent,
                serial.front[i].degradation_percent);
    }
  }
}

TEST_F(ParetoTest, RejectsBadInputs) {
  EXPECT_THROW(run({.random_samples = 1}), std::invalid_argument);
  const netlist::Netlist other = netlist::make_parity_tree("p", 4);
  const leakage::LeakageAnalyzer other_leak(other, lib_, 330.0);
  EXPECT_THROW(opt::pareto_standby_vectors(*analyzer_, other_leak, {}),
               std::invalid_argument);
}

class CriticalityTest : public ::testing::Test {
 protected:
  CriticalityTest() : c880_(netlist::iscas85_like("c880")) {
    cond_.sp_vectors = 512;
    analyzer_.emplace(c880_, lib_, cond_);
  }

  tech::Library lib_;
  netlist::Netlist c880_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
};

TEST_F(CriticalityTest, ProbabilitiesAreWellFormed) {
  const variation::CriticalityResult r =
      variation::gate_criticality(*analyzer_, {.samples = 100});
  ASSERT_EQ(r.probability.size(), static_cast<std::size_t>(c880_.num_gates()));
  double total = 0.0;
  for (double p : r.probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    total += p;
  }
  // Each sample contributes a whole path of gates.
  EXPECT_GT(total, 1.0);
  EXPECT_GE(r.distinct_paths, 1);
}

TEST_F(CriticalityTest, NominalCriticalPathGatesAreLikelyCritical) {
  const variation::CriticalityResult r =
      variation::gate_criticality(*analyzer_, {.samples = 150});
  const sta::TimingResult nominal = analyzer_->sta().analyze_fresh(400.0);
  double nominal_path_mass = 0.0;
  int nominal_gates = 0;
  for (netlist::NodeId n : nominal.critical_path) {
    const int gi = c880_.driver_gate(n);
    if (gi >= 0) {
      nominal_path_mass += r.probability[gi];
      ++nominal_gates;
    }
  }
  ASSERT_GT(nominal_gates, 0);
  EXPECT_GT(nominal_path_mass / nominal_gates, 0.2);
}

TEST_F(CriticalityTest, VariationSpreadsCriticality) {
  const variation::CriticalityResult tight =
      variation::gate_criticality(*analyzer_, {.sigma_vth = 0.002,
                                               .samples = 100});
  const variation::CriticalityResult wide =
      variation::gate_criticality(*analyzer_, {.sigma_vth = 0.04,
                                               .samples = 100});
  // More variation -> more gates carry non-trivial criticality.
  EXPECT_GE(wide.critical_set(0.02).size(), tight.critical_set(0.02).size());
}

TEST_F(CriticalityTest, AgedCriticalitySupported) {
  const variation::CriticalityResult r = variation::gate_criticality(
      *analyzer_, {.samples = 60, .aged = true});
  EXPECT_FALSE(r.critical_set(0.05).empty());
}

TEST_F(CriticalityTest, CriticalSetSortedByProbability) {
  const variation::CriticalityResult r =
      variation::gate_criticality(*analyzer_, {.samples = 80});
  const std::vector<int> set = r.critical_set(0.01);
  for (std::size_t i = 1; i < set.size(); ++i) {
    EXPECT_GE(r.probability[set[i - 1]], r.probability[set[i]]);
  }
}

TEST_F(CriticalityTest, BitIdenticalAcrossThreadCounts) {
  // Samples store their critical paths in disjoint slots and the hit-count
  // reduction runs serially in sample order.
  const variation::CriticalityParams p{.samples = 80, .seed = 3};
  variation::CriticalityResult serial;
  {
    const common::ThreadBudget one(1);
    serial = variation::gate_criticality(*analyzer_, p);
  }
  for (int n : {2, 8}) {
    const common::ThreadBudget budget(n);
    const variation::CriticalityResult r =
        variation::gate_criticality(*analyzer_, p);
    EXPECT_EQ(r.probability, serial.probability) << n;
    EXPECT_EQ(r.distinct_paths, serial.distinct_paths) << n;
  }
}

TEST_F(CriticalityTest, RejectsBadParameters) {
  EXPECT_THROW(variation::gate_criticality(*analyzer_, {.samples = 1}),
               std::invalid_argument);
  EXPECT_THROW(
      variation::gate_criticality(*analyzer_, {.sigma_vth = -0.1}),
      std::invalid_argument);
  // NaN used to pass: a NaN sigma failed at the first gate's delay law, and
  // an aged run at a NaN horizon inside the R-D kernel.
  const double nan = std::nan("");
  const auto expect_named = [&](const variation::CriticalityParams& bad,
                                const std::string& name) {
    try {
      variation::gate_criticality(*analyzer_, bad);
      ADD_FAILURE() << "no exception for " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  expect_named({.sigma_vth = nan}, "sigma_vth");
  expect_named({.sigma_vth = HUGE_VAL}, "sigma_vth");
  expect_named({.aged = true, .total_time = nan}, "total_time");
  expect_named({.aged = true, .total_time = HUGE_VAL}, "total_time");
  // Shifts past the linearized delay law's domain used to yield negative
  // gate delays and a criticality map of them.
  EXPECT_THROW(variation::gate_criticality(*analyzer_,
                                           {.sigma_vth = 1.0, .samples = 20}),
               std::domain_error);
}

}  // namespace
}  // namespace nbtisim
