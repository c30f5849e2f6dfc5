// Unit tests for the circuit-level aging platform (src/aging/*).

#include "aging/aging.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "netlist/generators.h"
#include "tech/units.h"
#include "variation/lifetime.h"

namespace nbtisim::aging {
namespace {

class AgingTest : public ::testing::Test {
 protected:
  tech::Library lib_;
  netlist::Netlist c432_ = netlist::iscas85_like("c432");

  AgingConditions cond(double standby_parts, double t_standby) const {
    AgingConditions c;
    c.schedule =
        nbti::ModeSchedule::from_ras(1, standby_parts, 1000.0, 400.0, t_standby);
    c.sp_vectors = 1024;
    return c;
  }
};

TEST_F(AgingTest, WorstCaseDominatesBestCase) {
  const AgingAnalyzer an(c432_, lib_, cond(9, 330.0));
  const DegradationReport worst = an.analyze(StandbyPolicy::all_stressed());
  const DegradationReport best = an.analyze(StandbyPolicy::all_relaxed());
  EXPECT_GT(worst.percent(), best.percent());
  EXPECT_GT(best.percent(), 0.0);
}

TEST_F(AgingTest, Table4MagnitudeBandsAt330K) {
  // Paper Table 4 at T_standby = 330 K: worst ~4%, best ~3.3%,
  // potential ~18% — our substrate should land in the same bands.
  const AgingAnalyzer an(c432_, lib_, cond(9, 330.0));
  const double worst = an.analyze(StandbyPolicy::all_stressed()).percent();
  const double best = an.analyze(StandbyPolicy::all_relaxed()).percent();
  EXPECT_GT(worst, 2.5);
  EXPECT_LT(worst, 7.0);
  EXPECT_GT(best, 2.0);
  EXPECT_LT(best, 6.0);
  const double potential = 100.0 * (worst - best) / worst;
  EXPECT_GT(potential, 8.0);
  EXPECT_LT(potential, 35.0);
}

TEST_F(AgingTest, Table4MagnitudeBandsAt400K) {
  const AgingAnalyzer an(c432_, lib_, cond(9, 400.0));
  const double worst = an.analyze(StandbyPolicy::all_stressed()).percent();
  const double best = an.analyze(StandbyPolicy::all_relaxed()).percent();
  EXPECT_GT(worst, 5.0);
  EXPECT_LT(worst, 12.0);
  const double potential = 100.0 * (worst - best) / worst;
  EXPECT_GT(potential, 35.0);  // paper: 54.9%
  EXPECT_LT(potential, 75.0);
}

TEST_F(AgingTest, BestCaseInsensitiveToStandbyTemperature) {
  // Table 4: best-case delay ~constant across standby temperatures.
  const AgingAnalyzer cold(c432_, lib_, cond(9, 330.0));
  const AgingAnalyzer hot(c432_, lib_, cond(9, 400.0));
  EXPECT_NEAR(cold.analyze(StandbyPolicy::all_relaxed()).percent(),
              hot.analyze(StandbyPolicy::all_relaxed()).percent(), 1e-9);
}

TEST_F(AgingTest, WorstCaseGrowsWithStandbyTemperature) {
  double prev = 0.0;
  for (double ts : {330.0, 350.0, 370.0, 400.0}) {
    const AgingAnalyzer an(c432_, lib_, cond(9, ts));
    const double w = an.analyze(StandbyPolicy::all_stressed()).percent();
    EXPECT_GT(w, prev) << "Ts=" << ts;
    prev = w;
  }
}

TEST_F(AgingTest, VectorPolicyLiesBetweenBounds) {
  const AgingAnalyzer an(c432_, lib_, cond(9, 330.0));
  const double worst = an.analyze(StandbyPolicy::all_stressed()).percent();
  const double best = an.analyze(StandbyPolicy::all_relaxed()).percent();
  std::vector<bool> v(c432_.num_inputs());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i % 3) == 0;
  const double vec = an.analyze(StandbyPolicy::from_vector(v)).percent();
  EXPECT_GE(vec, best - 1e-9);
  EXPECT_LE(vec, worst + 1e-9);
}

TEST_F(AgingTest, VectorPolicyRejectsWrongWidth) {
  const AgingAnalyzer an(c432_, lib_, cond(9, 330.0));
  EXPECT_THROW(an.analyze(StandbyPolicy::from_vector(std::vector<bool>(3))),
               std::invalid_argument);
}

TEST_F(AgingTest, GateDvthInPhysicalBand) {
  const AgingAnalyzer an(c432_, lib_, cond(9, 400.0));
  const std::vector<double> dvth = an.gate_dvth(StandbyPolicy::all_stressed());
  ASSERT_EQ(dvth.size(), static_cast<std::size_t>(c432_.num_gates()));
  for (double d : dvth) {
    EXPECT_GT(to_mV(d), 5.0);
    EXPECT_LT(to_mV(d), 60.0);
  }
}

TEST_F(AgingTest, DegradationGrowsOverTime) {
  const AgingAnalyzer an(c432_, lib_, cond(9, 330.0));
  const auto series =
      an.degradation_series(StandbyPolicy::all_stressed(), 1e6, 3e8, 6);
  ASSERT_EQ(series.size(), 6u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].second, series[i - 1].second);
  }
}

TEST_F(AgingTest, CircuitDegradationIsMilderThanDevice) {
  // Fig. 5's message: % delay shift << % Vth shift.
  const AgingAnalyzer an(c432_, lib_, cond(9, 400.0));
  const DegradationReport rep = an.analyze(StandbyPolicy::all_stressed());
  double max_dvth = 0.0;
  for (double d : rep.gate_dvth) max_dvth = std::max(max_dvth, d);
  const double device_percent = 100.0 * max_dvth / lib_.params().pmos.vth0;
  EXPECT_LT(rep.percent(), 0.6 * device_percent);
}

TEST_F(AgingTest, TaylorBoundsExactRiseOnlyModel) {
  AgingConditions taylor = cond(9, 400.0);
  AgingConditions exact = cond(9, 400.0);
  exact.taylor_delay = false;
  const AgingAnalyzer at(c432_, lib_, taylor);
  const AgingAnalyzer ax(c432_, lib_, exact);
  const double pt = at.analyze(StandbyPolicy::all_stressed()).percent();
  const double px = ax.analyze(StandbyPolicy::all_stressed()).percent();
  // The paper's Taylor form (eq. 22) treats the whole gate delay as governed
  // by the degraded device; the exact re-evaluation slows only the pull-up
  // transition, so Taylor sits a factor ~2 above it. Both must agree on the
  // direction and order of magnitude; the ablation bench quantifies this.
  EXPECT_GT(px, 0.0);
  EXPECT_GT(pt, px);
  EXPECT_LT(pt, 2.6 * px);
}

TEST_F(AgingTest, WorstCaseTempPessimismQuantified) {
  // The paper's motivating claim: assuming T_standby = T_active
  // overestimates degradation when the real standby is cold.
  AgingConditions aware = cond(9, 330.0);
  AgingConditions pessimistic = cond(9, 400.0);
  const AgingAnalyzer aa(c432_, lib_, aware);
  const AgingAnalyzer ap(c432_, lib_, pessimistic);
  const double d_aware = aa.analyze(StandbyPolicy::all_stressed()).percent();
  const double d_pess = ap.analyze(StandbyPolicy::all_stressed()).percent();
  EXPECT_GT(d_pess, 1.3 * d_aware);
}

TEST_F(AgingTest, AgedGateDelaysRejectSizeMismatch) {
  const AgingAnalyzer an(c432_, lib_, cond(9, 330.0));
  EXPECT_THROW(an.aged_gate_delays(std::vector<double>(3, 0.0)),
               std::invalid_argument);
}

// The first-order law 1 + alpha*dVth/(Vdd - Vth0 - offset) is shared by the
// aging and sizing paths; past the overdrive it used to return huge finite
// factors (an aged delay of 1e74 ns at --years 1e300).
TEST_F(AgingTest, TaylorDelayFactorGuardsItsDomain) {
  const tech::LibraryParams& lp = lib_.params();
  const double overdrive = lp.vdd - lp.pmos.vth0;
  EXPECT_EQ(taylor_delay_factor(lp, 0.0, 0.0, c432_, 0), 1.0);
  EXPECT_EQ(taylor_delay_factor(lp, 0.03, 0.0, c432_, 0),
            1.0 + lp.pmos.alpha * 0.03 / (lp.vdd - lp.pmos.vth0));
  EXPECT_EQ(taylor_delay_factor(lp, 0.03, 0.1, c432_, 0),
            1.0 + lp.pmos.alpha * 0.03 / (lp.vdd - lp.pmos.vth0 - 0.1));
  const std::string gate = c432_.node_name(c432_.gate(5).output);
  for (const auto& [dvth, offset] :
       std::vector<std::pair<double, double>>{
           {overdrive, 0.0}, {1e73, 0.0}, {overdrive - 0.1, 0.1},
           {std::nan(""), 0.0}, {-INFINITY, 0.0}, {INFINITY, 0.0}}) {
    SCOPED_TRACE(dvth);
    try {
      taylor_delay_factor(lp, dvth, offset, c432_, 5);
      FAIL() << "expected std::domain_error";
    } catch (const std::domain_error& e) {
      EXPECT_NE(std::string(e.what()).find("gate " + gate + ":"),
                std::string::npos)
          << e.what();
    }
  }
  // The analyzer's Taylor path reaches the guard at an absurd horizon.
  AgingConditions c = cond(9, 330.0);
  c.total_time = 1e300 * kSecondsPerYear;
  const AgingAnalyzer an(c432_, lib_, c);
  EXPECT_THROW(an.analyze(StandbyPolicy::all_stressed()), std::domain_error);
}

TEST_F(AgingTest, ReportAccessorsConsistent) {
  const AgingAnalyzer an(c432_, lib_, cond(5, 330.0));
  const DegradationReport rep = an.analyze(StandbyPolicy::all_stressed());
  EXPECT_NEAR(rep.delta_delay(), rep.aged_delay - rep.fresh_delay, 1e-18);
  EXPECT_NEAR(rep.percent(), 100.0 * rep.delta_delay() / rep.fresh_delay,
              1e-9);
}

TEST_F(AgingTest, StressDescriptorsBuildOncePerPolicy) {
  // The per-policy descriptor cache contract: horizon sweeps, Monte-Carlo
  // lifetime sampling and table builds over one policy are exactly one
  // stress-descriptor build (stress_build_count is the regression counter).
  const AgingAnalyzer an(c432_, lib_, cond(9, 330.0));
  EXPECT_EQ(an.stress_build_count(), 0u);

  const auto series =
      an.degradation_series(StandbyPolicy::all_stressed(), 1.0e6, 3.0e8, 8);
  ASSERT_EQ(series.size(), 8u);
  EXPECT_EQ(an.stress_build_count(), 1u);

  variation::LifetimeParams lt;
  lt.samples = 8;
  const variation::LifetimeResult mc =
      variation::lifetime_distribution(an, StandbyPolicy::all_stressed(), lt);
  ASSERT_EQ(mc.lifetimes.size(), 8u);
  EXPECT_EQ(an.stress_build_count(), 1u);

  const auto table =
      an.dvth_table(StandbyPolicy::all_stressed(), 1.0e6, 3.0e8, 8);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(an.stress_build_count(), 1u);

  // A different policy is a second build — and only one, even when repeated.
  an.gate_dvth(StandbyPolicy::all_relaxed(), 3.0e8);
  EXPECT_EQ(an.stress_build_count(), 2u);
  an.gate_dvth(StandbyPolicy::all_relaxed());
  EXPECT_EQ(an.stress_build_count(), 2u);

  // Invalidation restarts the count on next use.
  an.invalidate_stress_cache();
  an.gate_dvth(StandbyPolicy::all_stressed());
  EXPECT_EQ(an.stress_build_count(), 3u);
}

// Worst >= vector >= best must hold for every circuit.
class AgingBoundsSweep : public ::testing::TestWithParam<std::string_view> {};

TEST_P(AgingBoundsSweep, PolicyOrderingHolds) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like(std::string(GetParam()));
  AgingConditions c;
  c.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  c.sp_vectors = 512;
  const AgingAnalyzer an(nl, lib, c);
  const double worst = an.analyze(StandbyPolicy::all_stressed()).percent();
  const double best = an.analyze(StandbyPolicy::all_relaxed()).percent();
  std::vector<bool> zeros(nl.num_inputs(), false);
  const double vec = an.analyze(StandbyPolicy::from_vector(zeros)).percent();
  EXPECT_GT(worst, best) << GetParam();
  EXPECT_GE(vec, best - 1e-9) << GetParam();
  EXPECT_LE(vec, worst + 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Circuits, AgingBoundsSweep,
                         ::testing::Values("c432", "c499", "c880"),
                         [](const auto& suite_info) {
                           return std::string(suite_info.param);
                         });

}  // namespace
}  // namespace nbtisim::aging
