// Unit tests for the multi-mechanism failure suite (src/aging/failure.*):
// threshold-crossing interpolation, per-mechanism MTTFs, Weibull system
// aggregation, thread-count bit-identity and the differential check against
// the naive reference evaluator.

#include "aging/failure.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/pool.h"
#include "netlist/generators.h"
#include "support/reference.h"
#include "tech/units.h"

namespace nbtisim {
namespace {

// ---------------------------------------------------------------------------
// crossing_time

TEST(CrossingTime, InterpolatesFromImplicitOrigin) {
  // Single sample: the segment (0,0) -> (10, 1.0) crosses 0.5 at t = 5.
  const std::vector<double> t{10.0};
  const std::vector<double> v{1.0};
  EXPECT_DOUBLE_EQ(aging::crossing_time(t, v, 0.5), 5.0);
}

TEST(CrossingTime, InterpolatesInsideTheCrossingSegment) {
  const std::vector<double> t{1.0, 2.0, 4.0};
  const std::vector<double> v{0.1, 0.2, 0.6};
  // Crosses 0.4 on the (2, 0.2) -> (4, 0.6) segment: 2 + 2 * 0.2/0.4 = 3.
  EXPECT_DOUBLE_EQ(aging::crossing_time(t, v, 0.4), 3.0);
}

TEST(CrossingTime, ExactSampleHitReturnsThatTime) {
  const std::vector<double> t{1.0, 2.0, 3.0};
  const std::vector<double> v{0.1, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(aging::crossing_time(t, v, 0.5), 2.0);
}

TEST(CrossingTime, NeverCrossingReturnsNeverFails) {
  const std::vector<double> t{1.0, 2.0, 3.0};
  const std::vector<double> v{0.1, 0.2, 0.3};
  EXPECT_EQ(aging::crossing_time(t, v, 0.5), aging::kNeverFails);
  EXPECT_TRUE(std::isinf(aging::kNeverFails));
}

TEST(CrossingTime, RejectsBadInput) {
  const std::vector<double> t{1.0, 2.0};
  const std::vector<double> v{0.1, 0.2};
  const std::vector<double> empty;
  EXPECT_THROW(aging::crossing_time(t, v, 0.0), std::invalid_argument);
  EXPECT_THROW(aging::crossing_time(empty, empty, 0.5), std::invalid_argument);
  EXPECT_THROW(aging::crossing_time(t, empty, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// analyze_failure

class FailureSuiteTest : public ::testing::Test {
 protected:
  FailureSuiteTest() : c432_(netlist::iscas85_like("c432")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c432_, lib_, cond_);
    params_.time_points = 16;
  }

  tech::Library lib_;
  netlist::Netlist c432_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
  aging::FailureParams params_;
};

TEST_F(FailureSuiteTest, ReportsAllFiveMechanismsInOrder) {
  const aging::FailureReport rep = aging::analyze_failure(
      *analyzer_, aging::StandbyPolicy::all_stressed(), params_);
  ASSERT_EQ(rep.mechanisms.size(), 5u);
  EXPECT_EQ(rep.mechanisms[0].name, "nbti");
  EXPECT_EQ(rep.mechanisms[1].name, "pbti");
  EXPECT_EQ(rep.mechanisms[2].name, "hci");
  EXPECT_EQ(rep.mechanisms[3].name, "tddb");
  EXPECT_EQ(rep.mechanisms[4].name, "em");
  for (const aging::MechanismMttf& m : rep.mechanisms) {
    EXPECT_EQ(m.gate_mttf.size(),
              static_cast<std::size_t>(c432_.num_gates()));
    for (double mttf : m.gate_mttf) EXPECT_GT(mttf, 0.0);
  }
}

TEST_F(FailureSuiteTest, EnableFlagsSelectMechanisms) {
  aging::FailureParams p = params_;
  p.enable_nbti = false;
  p.enable_em = false;
  p.multi.enable_pbti = false;
  const aging::FailureReport rep = aging::analyze_failure(
      *analyzer_, aging::StandbyPolicy::all_stressed(), p);
  ASSERT_EQ(rep.mechanisms.size(), 2u);
  EXPECT_EQ(rep.mechanisms[0].name, "hci");
  EXPECT_EQ(rep.mechanisms[1].name, "tddb");
}

TEST_F(FailureSuiteTest, SystemMttfBelowEveryMechanism) {
  // Failure rates add: the series system dies before any single mechanism
  // alone would kill it.
  const aging::FailureReport rep = aging::analyze_failure(
      *analyzer_, aging::StandbyPolicy::all_stressed(), params_);
  EXPECT_GT(rep.lambda, 0.0);
  EXPECT_GT(rep.system_mttf, 0.0);
  for (const aging::MechanismMttf& m : rep.mechanisms) {
    EXPECT_LE(rep.system_mttf, m.system_mttf);
  }
}

TEST_F(FailureSuiteTest, LambdaIsTheSumOfMechanismLambdas) {
  const aging::FailureReport rep = aging::analyze_failure(
      *analyzer_, aging::StandbyPolicy::all_stressed(), params_);
  const double gamma = std::tgamma(1.0 + 1.0 / rep.weibull_beta);
  double sum = 0.0;
  for (const aging::MechanismMttf& m : rep.mechanisms) {
    if (std::isfinite(m.system_mttf)) {
      sum += std::pow(gamma / m.system_mttf, rep.weibull_beta);
    }
  }
  EXPECT_NEAR(rep.lambda, sum, 1e-9 * sum);
}

TEST_F(FailureSuiteTest, FailureCurveIsAMonotoneCdf) {
  const aging::FailureReport rep = aging::analyze_failure(
      *analyzer_, aging::StandbyPolicy::all_stressed(), params_);
  ASSERT_EQ(rep.failure_curve.size(), params_.curve_years.size());
  double prev = 0.0;
  for (const auto& [year, prob] : rep.failure_curve) {
    EXPECT_GE(prob, prev);
    EXPECT_GE(prob, 0.0);
    EXPECT_LE(prob, 1.0);
    EXPECT_DOUBLE_EQ(prob, rep.system_failure_at(year));
    prev = prob;
  }
  // F(MTTF) for a Weibull sits strictly between 0 and 1.
  const double at_mttf = rep.system_failure_at(rep.system_mttf);
  EXPECT_GT(at_mttf, 0.3);
  EXPECT_LT(at_mttf, 0.9);
  EXPECT_EQ(rep.system_failure_at(0.0), 0.0);
}

TEST_F(FailureSuiteTest, TighterThresholdFailsSooner) {
  aging::FailureParams loose = params_;
  loose.fail_dvth = 0.08;
  aging::FailureParams tight = params_;
  tight.fail_dvth = 0.03;
  const aging::FailureReport l = aging::analyze_failure(
      *analyzer_, aging::StandbyPolicy::all_stressed(), loose);
  const aging::FailureReport t = aging::analyze_failure(
      *analyzer_, aging::StandbyPolicy::all_stressed(), tight);
  EXPECT_LT(t.system_mttf, l.system_mttf);
}

TEST_F(FailureSuiteTest, RejectsBadParameters) {
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
  aging::FailureParams p = params_;
  p.fail_dvth = 0.0;
  EXPECT_THROW(aging::analyze_failure(*analyzer_, policy, p),
               std::invalid_argument);
  p = params_;
  p.max_years = -1.0;
  EXPECT_THROW(aging::analyze_failure(*analyzer_, policy, p),
               std::invalid_argument);
  p = params_;
  p.weibull_beta = 0.0;
  EXPECT_THROW(aging::analyze_failure(*analyzer_, policy, p),
               std::invalid_argument);
  p = params_;
  p.time_points = 1;
  EXPECT_THROW(aging::analyze_failure(*analyzer_, policy, p),
               std::invalid_argument);
  aging::StandbyPolicy empty_rotation;
  empty_rotation.kind = aging::StandbyPolicy::Kind::Rotating;
  EXPECT_THROW(aging::analyze_failure(*analyzer_, empty_rotation, params_),
               std::invalid_argument);

  // NaN used to pass every check: fail_dvth = NaN reported a longer system
  // MTTF with NBTI, PBTI and HCI never failing, clock_hz = NaN another
  // MTTF, and NaN beta or curve years NaN results. Each now throws naming
  // the parameter.
  const double nan = std::nan("");
  const auto expect_named = [&](const aging::FailureParams& bad,
                                const std::string& name) {
    SCOPED_TRACE(name);
    try {
      aging::analyze_failure(*analyzer_, policy, bad);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  for (double v : {nan, HUGE_VAL}) {
    p = params_;
    p.fail_dvth = v;
    expect_named(p, "fail_dvth");
    p = params_;
    p.max_years = v;
    expect_named(p, "max_years");
    p = params_;
    p.weibull_beta = v;
    expect_named(p, "weibull_beta");
    p = params_;
    p.multi.clock_hz = v;
    expect_named(p, "clock_hz");
    p = params_;
    p.curve_years = {1.0, v};
    expect_named(p, "curve_years");
  }
  p = params_;
  p.multi.clock_hz = -1.0;
  expect_named(p, "clock_hz");
  p = params_;
  p.curve_years = {-1.0};
  expect_named(p, "curve_years");
}

TEST_F(FailureSuiteTest, RejectsNonFiniteOrNegativePbtiRatio) {
  // Regression: a NaN ratio used to fail the kernel branch's ratio >= 0
  // test and fall through to a scalar loop whose std::max(0.0, NaN) kept 0,
  // so PBTI silently never failed.
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
  for (double ratio : {std::nan(""), HUGE_VAL, -0.1}) {
    SCOPED_TRACE(::testing::Message() << "ratio=" << ratio);
    aging::FailureParams p = params_;
    p.multi.pbti.ratio = ratio;
    try {
      aging::analyze_failure(*analyzer_, policy, p);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("pbti.ratio"), std::string::npos)
          << e.what();
    }
    // The ratio only matters while PBTI is part of the suite.
    p.multi.enable_pbti = false;
    EXPECT_NO_THROW(aging::analyze_failure(*analyzer_, policy, p));
  }
}

// ---------------------------------------------------------------------------
// Determinism contract (picked up by the ctest "determinism" label).

TEST_F(FailureSuiteTest, BitIdenticalAcrossThreadCounts) {
  aging::FailureReport want;
  {
    const common::ThreadBudget one(1);
    want = aging::analyze_failure(
        *analyzer_, aging::StandbyPolicy::all_stressed(), params_);
  }
  for (int n_threads : {2, 4, 8}) {
    const common::ThreadBudget budget(n_threads);
    const aging::FailureReport got = aging::analyze_failure(
        *analyzer_, aging::StandbyPolicy::all_stressed(), params_);
    ASSERT_EQ(got.mechanisms.size(), want.mechanisms.size());
    for (std::size_t mi = 0; mi < want.mechanisms.size(); ++mi) {
      EXPECT_EQ(got.mechanisms[mi].name, want.mechanisms[mi].name);
      EXPECT_EQ(got.mechanisms[mi].gate_mttf, want.mechanisms[mi].gate_mttf);
      EXPECT_EQ(got.mechanisms[mi].system_mttf,
                want.mechanisms[mi].system_mttf);
    }
    EXPECT_EQ(got.lambda, want.lambda);
    EXPECT_EQ(got.system_mttf, want.system_mttf);
    EXPECT_EQ(got.failure_curve, want.failure_curve);
  }
}

TEST_F(FailureSuiteTest, MatchesNaiveReferenceDifferentially) {
  // The optimized suite (stress contexts, parallel gate loops) must agree
  // bitwise with the context-free serial reference evaluator.
  for (const aging::StandbyPolicy& policy :
       {aging::StandbyPolicy::all_stressed(),
        aging::StandbyPolicy::all_relaxed()}) {
    const aging::FailureReport got =
        aging::analyze_failure(*analyzer_, policy, params_);
    const aging::FailureReport want =
        testsupport::reference_failure_report(*analyzer_, policy, params_);
    ASSERT_EQ(got.mechanisms.size(), want.mechanisms.size());
    for (std::size_t mi = 0; mi < want.mechanisms.size(); ++mi) {
      EXPECT_EQ(got.mechanisms[mi].name, want.mechanisms[mi].name);
      EXPECT_EQ(got.mechanisms[mi].gate_mttf, want.mechanisms[mi].gate_mttf);
      EXPECT_EQ(got.mechanisms[mi].system_mttf,
                want.mechanisms[mi].system_mttf);
    }
    EXPECT_EQ(got.lambda, want.lambda);
    EXPECT_EQ(got.system_mttf, want.system_mttf);
    EXPECT_EQ(got.failure_curve, want.failure_curve);
  }
}

}  // namespace
}  // namespace nbtisim
