// Unit tests for the reaction-diffusion NBTI device model (src/nbti/rd_model.*).

#include "nbti/rd_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tech/units.h"

namespace nbtisim::nbti {
namespace {

class RdModelTest : public ::testing::Test {
 protected:
  RdParams p_;
};

TEST_F(RdModelTest, DiffusionRatioIsOneAtReference) {
  EXPECT_DOUBLE_EQ(diffusion_ratio(p_, 400.0, 400.0), 1.0);
}

TEST_F(RdModelTest, DiffusionSlowerWhenColder) {
  EXPECT_LT(diffusion_ratio(p_, 330.0, 400.0), 1.0);
  EXPECT_GT(diffusion_ratio(p_, 430.0, 400.0), 1.0);
}

TEST_F(RdModelTest, DiffusionRatioFollowsArrhenius) {
  const double r = diffusion_ratio(p_, 330.0, 400.0);
  const double expected = std::exp(-p_.e_diffusion / kBoltzmannEv *
                                   (1.0 / 330.0 - 1.0 / 400.0));
  EXPECT_NEAR(r, expected, 1e-12);
}

TEST_F(RdModelTest, DiffusionRatioRejectsBadTemperature) {
  EXPECT_THROW(diffusion_ratio(p_, 0.0, 400.0), std::invalid_argument);
  EXPECT_THROW(diffusion_ratio(p_, 400.0, -1.0), std::invalid_argument);
}

TEST_F(RdModelTest, FieldFactorZeroWithoutInversion) {
  EXPECT_EQ(field_factor(p_, 0.2, 0.22), 0.0);
  EXPECT_EQ(field_factor(p_, 0.22, 0.22), 0.0);
}

TEST_F(RdModelTest, FieldFactorGrowsWithOverdrive) {
  EXPECT_GT(field_factor(p_, 1.0, 0.20), field_factor(p_, 1.0, 0.30));
  EXPECT_GT(field_factor(p_, 1.0, 0.22), field_factor(p_, 0.9, 0.22));
}

TEST_F(RdModelTest, KvAtReferenceEqualsKvRef) {
  EXPECT_NEAR(kv_at(p_, p_.temp_ref, p_.vgs_ref, p_.vth_ref), p_.kv_ref,
              1e-12);
}

TEST_F(RdModelTest, KvSmallerWhenColder) {
  EXPECT_LT(kv_at(p_, 330.0, 1.0, 0.22), kv_at(p_, 400.0, 1.0, 0.22));
}

TEST_F(RdModelTest, HigherInitialVthMeansSmallerKv) {
  // The paper's Section 4.1 Vth-dependence: higher Vth -> less NBTI.
  EXPECT_LT(kv_at(p_, 400.0, 1.0, 0.40), kv_at(p_, 400.0, 1.0, 0.20));
}

TEST_F(RdModelTest, DcLawIsQuarterPower) {
  const double d1 = dc_delta_vth(p_, 400.0, 1e6, 1.0, 0.22);
  const double d16 = dc_delta_vth(p_, 400.0, 16e6, 1.0, 0.22);
  EXPECT_NEAR(d16 / d1, 2.0, 1e-9);  // 16^(1/4) = 2
}

TEST_F(RdModelTest, DcTenYearCalibration) {
  // DESIGN.md calibration anchor: ~49 mV after 3e8 s DC at 400 K.
  const double dvth = dc_delta_vth(p_, 400.0, kTenYears, 1.0, 0.22);
  EXPECT_GT(to_mV(dvth), 40.0);
  EXPECT_LT(to_mV(dvth), 60.0);
}

TEST_F(RdModelTest, DcRejectsNegativeTime) {
  EXPECT_THROW(dc_delta_vth(p_, 400.0, -1.0, 1.0, 0.22),
               std::invalid_argument);
  EXPECT_THROW(dc_delta_vth(p_, 400.0, std::nan(""), 1.0, 0.22),
               std::invalid_argument);
}

TEST_F(RdModelTest, DcZeroAtZeroTime) {
  EXPECT_EQ(dc_delta_vth(p_, 400.0, 0.0, 1.0, 0.22), 0.0);
}

TEST_F(RdModelTest, RecoveryFactorBounds) {
  EXPECT_DOUBLE_EQ(recovery_factor(0.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(recovery_factor(100.0, 0.0), 0.0);
  const double f = recovery_factor(50.0, 100.0);
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, 1.0);
}

TEST_F(RdModelTest, LongerRecoveryRemovesMoreDamage) {
  EXPECT_LT(recovery_factor(200.0, 100.0), recovery_factor(50.0, 100.0));
}

TEST_F(RdModelTest, RecoveryRejectsNegativeTimes) {
  EXPECT_THROW(recovery_factor(-1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(recovery_factor(1.0, -10.0), std::invalid_argument);
}

// Arrhenius sweep: Kv must be monotone in temperature over the whole
// operating band.
class KvTempSweep : public ::testing::TestWithParam<double> {};

TEST_P(KvTempSweep, MonotoneBelowReference) {
  const RdParams p;
  const double t = GetParam();
  EXPECT_LT(kv_at(p, t, 1.0, 0.22), kv_at(p, t + 10.0, 1.0, 0.22));
}

INSTANTIATE_TEST_SUITE_P(Band, KvTempSweep,
                         ::testing::Values(300.0, 320.0, 340.0, 360.0, 380.0));

}  // namespace
}  // namespace nbtisim::nbti
