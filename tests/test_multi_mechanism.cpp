// Unit tests for PBTI/HCI models (src/nbti/other_mechanisms.*) and the
// multi-mechanism circuit analysis (src/aging/multi.*).

#include "aging/multi.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "netlist/generators.h"
#include "tech/units.h"

namespace nbtisim {
namespace {

class MechanismTest : public ::testing::Test {
 protected:
  MechanismTest() : inv_("inv") {
    in_ = inv_.add_input("a");
    inv_.mark_output(inv_.add_gate(tech::GateFn::Not, {in_}, "y"));
  }

  /// Analyzer of the inverter whose input is 1 with probability
  /// \p input_sp while active.
  aging::AgingAnalyzer inverter(double input_sp) const {
    aging::AgingConditions cond;
    cond.schedule = sched_;
    cond.rd = rd_;
    cond.input_sp = {input_sp};
    return aging::AgingAnalyzer(inv_, lib_, cond);
  }

  /// PBTI-only shift of the inverter's one NMOS, which sits on the input,
  /// with the input held at \p standby in standby.
  static double pbti(const aging::AgingAnalyzer& an, bool standby,
                     double total_time) {
    return aging::analyze_multi_mechanism(
               an, aging::StandbyPolicy::from_vector({standby}),
               {.enable_hci = false}, total_time)
        .nmos_dvth[0];
  }

  nbti::RdParams rd_;
  nbti::ModeSchedule sched_ =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  tech::Library lib_;
  netlist::Netlist inv_;
  netlist::NodeId in_ = 0;
};

TEST_F(MechanismTest, PbtiIsAFractionOfNbti) {
  // The inverter's NMOS follows the NBTI R-D law with the polarity inverted
  // (stressed while its gate is 1), scaled by the PBTI ratio.
  const aging::AgingAnalyzer an = inverter(0.5);
  const nbti::DeviceStress nmos{an.signal_stats().probability[in_],
                                nbti::StandbyMode::Stressed,
                                lib_.params().vdd, lib_.params().nmos.vth0};
  const double n = nbti::DeviceAging(rd_).delta_vth(nmos, sched_, kTenYears);
  EXPECT_NEAR(pbti(an, true, kTenYears) / n, nbti::PbtiParams{}.ratio, 1e-9);
}

TEST_F(MechanismTest, PbtiStressPolarityIsInverted) {
  // Gate mostly HIGH ages the NMOS more than gate mostly LOW.
  EXPECT_GT(pbti(inverter(0.9), true, 3e8), pbti(inverter(0.1), false, 3e8));
}

TEST_F(MechanismTest, HciGrowsWithActivityAndTime) {
  const nbti::HciParams hci;
  const double lo = nbti::hci_delta_vth(hci, 0.1, 1e9, sched_, kTenYears);
  const double hi = nbti::hci_delta_vth(hci, 0.4, 1e9, sched_, kTenYears);
  EXPECT_GT(hi, lo);
  const double later = nbti::hci_delta_vth(hci, 0.1, 1e9, sched_, 4 * kTenYears);
  EXPECT_NEAR(later / lo, 2.0, 1e-9);  // sqrt law
}

TEST_F(MechanismTest, HciMagnitudeBand) {
  // Calibration: ~10 mV-class at 10 years, 1 GHz, typical activity.
  const nbti::HciParams hci;
  const double d = nbti::hci_delta_vth(hci, 0.2, 1e9, sched_, kTenYears);
  EXPECT_GT(to_mV(d), 2.0);
  EXPECT_LT(to_mV(d), 30.0);
}

TEST_F(MechanismTest, HciZeroWithoutSwitching) {
  const nbti::HciParams hci;
  EXPECT_EQ(nbti::hci_delta_vth(hci, 0.0, 1e9, sched_, kTenYears), 0.0);
  EXPECT_EQ(nbti::hci_delta_vth(hci, 0.2, 0.0, sched_, kTenYears), 0.0);
  EXPECT_EQ(nbti::hci_delta_vth(hci, 0.2, 1e9, sched_, 0.0), 0.0);
}

TEST_F(MechanismTest, HciRejectsBadInput) {
  const nbti::HciParams hci;
  EXPECT_THROW(nbti::hci_delta_vth(hci, 1.5, 1e9, sched_, 1e6),
               std::invalid_argument);
  EXPECT_THROW(nbti::hci_delta_vth(hci, 0.5, 1e9, sched_, -1.0),
               std::invalid_argument);
}

TEST_F(MechanismTest, HciColderIsWorse) {
  nbti::HciParams hci;
  const nbti::ModeSchedule cold =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 350.0, 330.0);
  const nbti::ModeSchedule hot =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  EXPECT_GT(nbti::hci_delta_vth(hci, 0.2, 1e9, cold, kTenYears),
            nbti::hci_delta_vth(hci, 0.2, 1e9, hot, kTenYears));
}

TEST_F(MechanismTest, TddbCalibratedNearTwentyFiveYearsAtNominal) {
  const nbti::TddbParams tddb;
  const double years = nbti::tddb_mttf(tddb, 1.0, 400.0) / kSecondsPerYear;
  EXPECT_GT(years, 15.0);
  EXPECT_LT(years, 40.0);
}

TEST_F(MechanismTest, TddbAcceleratesWithVoltageAndTemperature) {
  const nbti::TddbParams tddb;
  EXPECT_LT(nbti::tddb_mttf(tddb, 1.2, 400.0),
            nbti::tddb_mttf(tddb, 1.0, 400.0));
  EXPECT_LT(nbti::tddb_mttf(tddb, 1.0, 430.0),
            nbti::tddb_mttf(tddb, 1.0, 400.0));
}

TEST_F(MechanismTest, TddbRejectsBadInput) {
  const nbti::TddbParams tddb;
  EXPECT_THROW(nbti::tddb_mttf(tddb, 0.0, 400.0), std::invalid_argument);
  EXPECT_THROW(nbti::tddb_mttf(tddb, 1.0, -10.0), std::invalid_argument);
  EXPECT_THROW(nbti::tddb_mttf({.scale_s = 0.0}, 1.0, 400.0),
               std::invalid_argument);
}

TEST_F(MechanismTest, EmFollowsBlacksEquation) {
  const nbti::EmParams em;
  // J^-n: doubling the current with n = 2 quarters the MTTF.
  const double base = nbti::em_mttf(em, em.ref_current_a, 400.0);
  const double doubled = nbti::em_mttf(em, 2.0 * em.ref_current_a, 400.0);
  EXPECT_NEAR(base / doubled, 4.0, 1e-9);
  // exp(Ea/kT): the exact Arrhenius ratio between two temperatures.
  const double hot = nbti::em_mttf(em, em.ref_current_a, 430.0);
  const double expected =
      std::exp(em.ea / (kBoltzmannEv * 400.0) - em.ea / (kBoltzmannEv * 430.0));
  EXPECT_NEAR(base / hot, expected, 1e-9 * expected);
}

TEST_F(MechanismTest, EmCalibratedNearTwentyYearsAtReference) {
  const nbti::EmParams em;
  const double years =
      nbti::em_mttf(em, em.ref_current_a, 400.0) / kSecondsPerYear;
  EXPECT_GT(years, 10.0);
  EXPECT_LT(years, 40.0);
}

TEST_F(MechanismTest, EmZeroCurrentNeverFails) {
  const nbti::EmParams em;
  EXPECT_TRUE(std::isinf(nbti::em_mttf(em, 0.0, 400.0)));
}

TEST_F(MechanismTest, EmRejectsBadInput) {
  const nbti::EmParams em;
  EXPECT_THROW(nbti::em_mttf(em, -1e-6, 400.0), std::invalid_argument);
  EXPECT_THROW(nbti::em_mttf(em, 1e-6, 0.0), std::invalid_argument);
  EXPECT_THROW(nbti::em_mttf({.ref_current_a = 0.0}, 1e-6, 400.0),
               std::invalid_argument);
}

class MultiMechanismTest : public ::testing::Test {
 protected:
  MultiMechanismTest() : c432_(netlist::iscas85_like("c432")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c432_, lib_, cond_);
  }

  tech::Library lib_;
  netlist::Netlist c432_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
};

TEST_F(MultiMechanismTest, AllMechanismsWorseThanNbtiAlone) {
  const aging::MultiAgingReport rep = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed());
  EXPECT_GT(rep.aged_delay, rep.nbti_only_delay);
  EXPECT_GT(rep.nbti_only_delay, rep.fresh_delay);
  EXPECT_GT(rep.percent(), rep.nbti_only_percent());
}

TEST_F(MultiMechanismTest, DisablingMechanismsRemovesTheirShift) {
  const aging::MultiAgingReport none = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.enable_pbti = false, .enable_hci = false});
  for (double d : none.nmos_dvth) EXPECT_EQ(d, 0.0);
  EXPECT_NEAR(none.aged_delay, none.nbti_only_delay, 1e-18);
}

TEST_F(MultiMechanismTest, PbtiPolarityInvertsStandbyPreference) {
  // All-stressed (nets at 0) is NBTI's worst case but PBTI's best; the
  // PBTI-only NMOS shift must be larger under the all-relaxed policy.
  const aging::MultiAgingParams pbti_only{.enable_pbti = true,
                                          .enable_hci = false};
  const aging::MultiAgingReport worst_nbti = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed(), pbti_only);
  const aging::MultiAgingReport worst_pbti = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_relaxed(), pbti_only);
  double sum_stressed = 0.0, sum_relaxed = 0.0;
  for (double d : worst_nbti.nmos_dvth) sum_stressed += d;
  for (double d : worst_pbti.nmos_dvth) sum_relaxed += d;
  EXPECT_GT(sum_relaxed, sum_stressed);
}

TEST_F(MultiMechanismTest, NmosShiftsInPhysicalBand) {
  const aging::MultiAgingReport rep = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed());
  for (double d : rep.nmos_dvth) {
    EXPECT_GE(d, 0.0);
    EXPECT_LT(to_mV(d), 60.0);
  }
}

TEST_F(MultiMechanismTest, VectorPolicySupported) {
  std::vector<bool> v(c432_.num_inputs(), true);
  const aging::MultiAgingReport rep = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::from_vector(v));
  EXPECT_GT(rep.percent(), 0.0);
}

TEST_F(MultiMechanismTest, EmptyRotationIsRejectedNotNaN) {
  // Regression: a Rotating policy with no vectors used to divide by the
  // rotation size and poison every standby_stress_fraction with NaN. The
  // rotating() factory already throws, so build the policy by hand.
  aging::StandbyPolicy p;
  p.kind = aging::StandbyPolicy::Kind::Rotating;
  ASSERT_TRUE(p.rotation.empty());
  EXPECT_THROW(analyzer_->build_stress(p, tech::Channel::Nmos),
               std::invalid_argument);
  EXPECT_THROW(aging::analyze_multi_mechanism(*analyzer_, p),
               std::invalid_argument);
}

TEST_F(MultiMechanismTest, PbtiStressSetMatchesReportShift) {
  // The PBTI-only NMOS shifts of analyze_multi_mechanism are exactly the
  // ratio times the worst device of the NMOS stress set.
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_relaxed();
  const aging::MultiAgingParams params{.enable_pbti = true,
                                       .enable_hci = false};
  const aging::MultiAgingReport rep =
      aging::analyze_multi_mechanism(*analyzer_, policy, params);
  const aging::AgingAnalyzer::StressSet set =
      analyzer_->build_stress(policy, tech::Channel::Nmos);
  ASSERT_EQ(set.gate_begin.size(), c432_.num_gates() + 1);
  const std::vector<double> worst = analyzer_->worst_per_gate(
      set, analyzer_->conditions().total_time);
  for (int g = 0; g < c432_.num_gates(); ++g) {
    EXPECT_EQ(rep.nmos_dvth[g], params.pbti.ratio * worst[g]) << "gate " << g;
  }
}

TEST_F(MultiMechanismTest, HigherClockAgesFaster) {
  const aging::MultiAgingReport slow = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.enable_pbti = false, .clock_hz = 1e8});
  const aging::MultiAgingReport fast = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.enable_pbti = false, .clock_hz = 4e9});
  EXPECT_GT(fast.aged_delay, slow.aged_delay);
}

TEST_F(MultiMechanismTest, RejectsNonFiniteOrNegativePbtiRatio) {
  // Regression: std::max(0.0, NaN * dVth) kept 0, so a NaN ratio dropped
  // PBTI from the report without a word.
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
  for (double ratio : {std::nan(""), HUGE_VAL, -0.1}) {
    SCOPED_TRACE(::testing::Message() << "ratio=" << ratio);
    aging::MultiAgingParams p;
    p.pbti.ratio = ratio;
    try {
      aging::analyze_multi_mechanism(*analyzer_, policy, p);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("pbti.ratio"), std::string::npos)
          << e.what();
    }
    p.enable_pbti = false;
    EXPECT_NO_THROW(aging::analyze_multi_mechanism(*analyzer_, policy, p));
  }
  // A NaN clock used to report multi_pct -100; a NaN horizon failed only
  // inside the R-D kernel. Both now throw naming the parameter.
  for (double v : {std::nan(""), HUGE_VAL, -1.0}) {
    SCOPED_TRACE(::testing::Message() << "value=" << v);
    aging::MultiAgingParams p;
    p.clock_hz = v;
    try {
      aging::analyze_multi_mechanism(*analyzer_, policy, p);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("clock_hz"), std::string::npos)
          << e.what();
    }
    try {
      aging::analyze_multi_mechanism(*analyzer_, policy, {}, v);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("total_time"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace nbtisim
