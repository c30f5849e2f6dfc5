// Unit tests for IVC co-optimization and internal-node-control analysis
// (src/opt/ivc.*).

#include "opt/ivc.h"

#include <gtest/gtest.h>

#include "common/pool.h"
#include "netlist/generators.h"

namespace nbtisim::opt {
namespace {

class IvcTest : public ::testing::Test {
 protected:
  tech::Library lib_;
  netlist::Netlist c432_ = netlist::iscas85_like("c432");

  aging::AgingConditions cond(double t_standby) const {
    aging::AgingConditions c;
    c.schedule = nbti::ModeSchedule::from_ras(1, 5, 600.0, 400.0, t_standby);
    c.sp_vectors = 512;
    return c;
  }
};

TEST_F(IvcTest, ProducesConsistentResult) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  const leakage::LeakageAnalyzer leak(c432_, lib_, 330.0);
  const IvcResult r = evaluate_ivc(an, leak, {.population = 48, .max_rounds = 12});
  ASSERT_FALSE(r.candidates.empty());
  // Chosen member achieves the set's minimum degradation.
  for (const IvcCandidate& c : r.candidates) {
    EXPECT_GE(c.degradation_percent, r.best().degradation_percent - 1e-12);
  }
  // Candidate degradations lie between the bounding policies.
  for (const IvcCandidate& c : r.candidates) {
    EXPECT_GE(c.degradation_percent, r.best_case_percent - 1e-9);
    EXPECT_LE(c.degradation_percent, r.worst_case_percent + 1e-9);
  }
}

TEST_F(IvcTest, MlvBeatsWorstCaseDegradation) {
  // Paper Section 4.3.2: "MLVs not only reduce the leakage of the circuit,
  // but also show lower temporal degradation compared to the worst case".
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  const leakage::LeakageAnalyzer leak(c432_, lib_, 330.0);
  const IvcResult r = evaluate_ivc(an, leak, {.population = 48, .max_rounds = 12});
  EXPECT_LT(r.best().degradation_percent, r.worst_case_percent);
}

TEST_F(IvcTest, MlvSpreadIsSmallAtColdStandby) {
  // Paper Table 3: the "MLV diff" column is small because T_standby is low.
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  const leakage::LeakageAnalyzer leak(c432_, lib_, 330.0);
  const IvcResult r = evaluate_ivc(an, leak, {.population = 48, .max_rounds = 12});
  EXPECT_LT(r.mlv_spread_percent(), 1.0);  // percentage points
}

TEST_F(IvcTest, SpreadGrowsWithHotterStandby) {
  const leakage::LeakageAnalyzer leak(c432_, lib_, 330.0);
  const MlvSearchParams mlv{.population = 48, .max_rounds = 12};
  const aging::AgingAnalyzer cold(c432_, lib_, cond(330.0));
  const aging::AgingAnalyzer hot(c432_, lib_, cond(400.0));
  const IvcResult rc = evaluate_ivc(cold, leak, mlv, 0);
  const IvcResult rh = evaluate_ivc(hot, leak, mlv, 0);
  EXPECT_GE(rh.mlv_spread_percent(), rc.mlv_spread_percent() - 1e-9);
}

TEST_F(IvcTest, RejectsMismatchedNetlists) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  const netlist::Netlist other = netlist::make_parity_tree("p", 4);
  const leakage::LeakageAnalyzer leak(other, lib_, 330.0);
  EXPECT_THROW(evaluate_ivc(an, leak), std::invalid_argument);
}

TEST_F(IvcTest, IncPotentialPositiveAndBounded) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  const IncPotential p = internal_node_control_potential(an);
  EXPECT_GT(p.worst_percent, p.best_percent);
  EXPECT_GT(p.potential_percent(), 0.0);
  EXPECT_LT(p.potential_percent(), 100.0);
}

TEST_F(IvcTest, IncPotentialGrowsWithStandbyTemperature) {
  // Table 4's headline: potential 18.1% at 330 K -> 54.9% at 400 K.
  double prev = 0.0;
  for (double ts : {330.0, 370.0, 400.0}) {
    aging::AgingConditions c;
    c.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, ts);
    c.sp_vectors = 512;
    const aging::AgingAnalyzer an(c432_, lib_, c);
    const double pot = internal_node_control_potential(an).potential_percent();
    EXPECT_GT(pot, prev) << "Ts=" << ts;
    prev = pot;
  }
  EXPECT_GT(prev, 35.0);  // at 400 K, in the paper's half-ish band
}

TEST_F(IvcTest, RotatingPolicyLiesBetweenMembersAndBest) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(400.0));
  std::vector<bool> zeros(c432_.num_inputs(), false);
  std::vector<bool> ones(c432_.num_inputs(), true);
  const double p0 =
      an.analyze(aging::StandbyPolicy::from_vector(zeros)).percent();
  const double p1 =
      an.analyze(aging::StandbyPolicy::from_vector(ones)).percent();
  const double rot =
      an.analyze(aging::StandbyPolicy::rotating({zeros, ones})).percent();
  EXPECT_LE(rot, std::max(p0, p1) + 1e-9);
  EXPECT_GE(rot, std::min(p0, p1) * 0.5);
}

TEST_F(IvcTest, RotatingSingleVectorEqualsStatic) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  std::vector<bool> v(c432_.num_inputs());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i & 1) != 0;
  const double stat = an.analyze(aging::StandbyPolicy::from_vector(v)).percent();
  const double rot = an.analyze(aging::StandbyPolicy::rotating({v})).percent();
  EXPECT_NEAR(stat, rot, 1e-12);
}

TEST_F(IvcTest, RotatingPolicyValidation) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  EXPECT_THROW(aging::StandbyPolicy::rotating({}), std::invalid_argument);
  EXPECT_THROW(
      an.analyze(aging::StandbyPolicy::rotating({std::vector<bool>(3)})),
      std::invalid_argument);
}

TEST_F(IvcTest, AlternatingIvcReducesMaxDeviceDegradation) {
  // Penelope's claim [23]: rotating vectors that stress different PMOS
  // reduces the maximum degradation of any device.
  const aging::AgingAnalyzer an(c432_, lib_, cond(400.0));
  const leakage::LeakageAnalyzer leak(c432_, lib_, 330.0);
  const AlternatingIvcResult r = evaluate_alternating_ivc(
      an, leak, {.population = 48, .max_rounds = 12, .max_set_size = 8});
  EXPECT_GE(r.n_vectors, 1);
  EXPECT_GT(r.static_max_dvth, 0.0);
  if (r.n_vectors > 1) {
    EXPECT_LE(r.rotating_max_dvth, r.static_max_dvth + 1e-15);
    EXPECT_GE(r.max_dvth_reduction_percent(), 0.0);
  }
  EXPECT_GT(r.mean_rotation_leakage, 0.0);
}

TEST_F(IvcTest, ComplementRotationDiversifiesStress) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(400.0));
  const leakage::LeakageAnalyzer leak(c432_, lib_, 330.0);
  const AlternatingIvcResult r = evaluate_alternating_ivc(
      an, leak, {.population = 48, .max_rounds = 12, .max_set_size = 8});
  // Rotating a vector with its complement cannot stress any device harder
  // than holding the worse of the two constantly; the max device dVth must
  // not exceed the static one by more than numerical noise, and it costs
  // leakage (the complement is not an MLV).
  EXPECT_LE(r.complement_max_dvth, r.static_max_dvth + 1e-12);
  EXPECT_GT(r.complement_max_dvth_reduction_percent(), -1e-9);
  EXPECT_GE(r.complement_leakage, r.mean_rotation_leakage * 0.5);
  EXPECT_GT(r.complement_percent, 0.0);
}

TEST_F(IvcTest, AlternatingIvcRejectsMismatchedNetlists) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  const netlist::Netlist other = netlist::make_parity_tree("p", 4);
  const leakage::LeakageAnalyzer leak(other, lib_, 330.0);
  EXPECT_THROW(evaluate_alternating_ivc(an, leak), std::invalid_argument);
}

TEST_F(IvcTest, EvaluateIvcBitIdenticalAcrossThreadCounts) {
  // Candidate and random-reference evaluations fan out over parallel_for
  // with per-index slots; the result must match the serial run exactly.
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  const leakage::LeakageAnalyzer leak(c432_, lib_, 330.0);
  const MlvSearchParams p{.population = 32, .max_rounds = 8};
  IvcResult serial;
  {
    const common::ThreadBudget one(1);
    serial = evaluate_ivc(an, leak, p, 8);
  }
  for (int n : {2, 8}) {
    const common::ThreadBudget budget(n);
    const IvcResult r = evaluate_ivc(an, leak, p, 8);
    ASSERT_EQ(r.candidates.size(), serial.candidates.size()) << n;
    EXPECT_EQ(r.best_index, serial.best_index) << n;
    EXPECT_EQ(r.random_vector_percent, serial.random_vector_percent) << n;
    EXPECT_EQ(r.worst_case_percent, serial.worst_case_percent) << n;
    for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
      EXPECT_EQ(r.candidates[i].vector, serial.candidates[i].vector) << n;
      EXPECT_EQ(r.candidates[i].leakage, serial.candidates[i].leakage) << n;
      EXPECT_EQ(r.candidates[i].degradation_percent,
                serial.candidates[i].degradation_percent)
          << n;
    }
  }
}

TEST_F(IvcTest, AlternatingIvcBitIdenticalAcrossThreadCounts) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(400.0));
  const leakage::LeakageAnalyzer leak(c432_, lib_, 330.0);
  const MlvSearchParams p{.population = 32, .max_rounds = 8,
                          .max_set_size = 6};
  AlternatingIvcResult serial;
  {
    const common::ThreadBudget one(1);
    serial = evaluate_alternating_ivc(an, leak, p);
  }
  for (int n : {2, 8}) {
    const common::ThreadBudget budget(n);
    const AlternatingIvcResult r = evaluate_alternating_ivc(an, leak, p);
    EXPECT_EQ(r.n_vectors, serial.n_vectors) << n;
    EXPECT_EQ(r.static_percent, serial.static_percent) << n;
    EXPECT_EQ(r.static_max_dvth, serial.static_max_dvth) << n;
    EXPECT_EQ(r.rotating_percent, serial.rotating_percent) << n;
    EXPECT_EQ(r.complement_percent, serial.complement_percent) << n;
  }
}

TEST_F(IvcTest, RandomReferenceBetweenBounds) {
  const aging::AgingAnalyzer an(c432_, lib_, cond(330.0));
  const leakage::LeakageAnalyzer leak(c432_, lib_, 330.0);
  const IvcResult r =
      evaluate_ivc(an, leak, {.population = 32, .max_rounds = 8}, 4);
  EXPECT_GE(r.random_vector_percent, r.best_case_percent - 1e-9);
  EXPECT_LE(r.random_vector_percent, r.worst_case_percent + 1e-9);
}

}  // namespace
}  // namespace nbtisim::opt
