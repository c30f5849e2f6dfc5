// Unit tests for NBTI-aware gate sizing (src/opt/sizing.*).

#include "opt/sizing.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/pool.h"
#include "netlist/generators.h"
#include "support/reference.h"

namespace nbtisim::opt {
namespace {

class SizingTest : public ::testing::Test {
 protected:
  SizingTest() : c432_(netlist::iscas85_like("c432")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c432_, lib_, cond_);
  }

  tech::Library lib_;
  netlist::Netlist c432_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
};

TEST_F(SizingTest, MeetsSpecWithModestArea) {
  const SizingResult r = size_for_lifetime(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 3.0, .size_step = 0.5, .max_moves = 400});
  EXPECT_TRUE(r.met);
  EXPECT_LE(r.aged_after, r.spec * (1.0 + 1e-12));
  EXPECT_GT(r.moves, 0);
  // Guard-banding would need ~8% slack; sizing should cost far less area
  // than that percentage (only critical-path gates are touched).
  EXPECT_LT(r.area_overhead_percent(), r.guard_band_percent());
}

TEST_F(SizingTest, AgedDelayImprovesMonotonically) {
  const SizingResult r = size_for_lifetime(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 5.0, .size_step = 0.5, .max_moves = 200});
  EXPECT_LT(r.aged_after, r.aged_before);
}

TEST_F(SizingTest, AlreadyMeetingSpecNeedsNoMoves) {
  // With a margin above the aged degradation, no sizing is necessary.
  const SizingResult r = size_for_lifetime(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 50.0});
  EXPECT_TRUE(r.met);
  EXPECT_EQ(r.moves, 0);
  EXPECT_DOUBLE_EQ(r.area_overhead_percent(), 0.0);
}

TEST_F(SizingTest, TighterSpecCostsMoreArea) {
  const SizingResult loose = size_for_lifetime(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 6.0, .size_step = 0.5, .max_moves = 400});
  const SizingResult tight = size_for_lifetime(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 3.0, .size_step = 0.5, .max_moves = 400});
  EXPECT_GE(tight.area_overhead_percent(), loose.area_overhead_percent());
}

TEST_F(SizingTest, SizesStayWithinBounds) {
  const SizingResult r = size_for_lifetime(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 2.0, .size_step = 0.5, .max_size = 2.0,
       .max_moves = 300});
  for (double s : r.sizes) {
    EXPECT_GE(s, 1.0);
    EXPECT_LE(s, 2.0 + 1e-12);
  }
}

TEST_F(SizingTest, RelaxedPolicyNeedsLessWork) {
  const SizingResult worst = size_for_lifetime(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 4.0, .size_step = 0.5, .max_moves = 300});
  const SizingResult best = size_for_lifetime(
      *analyzer_, aging::StandbyPolicy::all_relaxed(),
      {.spec_margin_percent = 4.0, .size_step = 0.5, .max_moves = 300});
  EXPECT_LE(best.moves, worst.moves);
  EXPECT_LE(best.aged_before, worst.aged_before);
}

TEST_F(SizingTest, BitIdenticalAcrossThreadCountsAndEvalPaths) {
  // The production loop at every thread count, and the full-rebuild oracle,
  // must agree bit for bit.
  const SizingParams params{.spec_margin_percent = 4.0, .size_step = 0.5,
                            .max_moves = 150};
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
  SizingResult want;
  {
    const common::ThreadBudget one(1);
    want = size_for_lifetime(*analyzer_, policy, params);
  }
  EXPECT_GT(want.moves, 0);
  for (int n_threads : {2, 8}) {
    const common::ThreadBudget budget(n_threads);
    const SizingResult got = size_for_lifetime(*analyzer_, policy, params);
    EXPECT_EQ(got.sizes, want.sizes) << "n_threads=" << n_threads;
    EXPECT_EQ(got.moves, want.moves);
    EXPECT_EQ(got.aged_after, want.aged_after);
    EXPECT_EQ(got.met, want.met);
  }
  const SizingResult oracle =
      testsupport::reference_size_for_lifetime(*analyzer_, policy, params);
  EXPECT_EQ(oracle.sizes, want.sizes);
  EXPECT_EQ(oracle.moves, want.moves);
  EXPECT_EQ(oracle.aged_after, want.aged_after);
  EXPECT_EQ(oracle.met, want.met);
}

TEST_F(SizingTest, IncrementalMatchesFullRebuild) {
  // Patched-delay trials vs the oracle's full delay rebuild + full STA per
  // trial (tests/support/reference.h).
  const SizingParams params{.spec_margin_percent = 3.0, .size_step = 0.5,
                            .max_moves = 200};
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
  const SizingResult a =
      testsupport::reference_size_for_lifetime(*analyzer_, policy, params);
  const SizingResult b = size_for_lifetime(*analyzer_, policy, params);
  EXPECT_GT(a.moves, 0);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.aged_after, b.aged_after);
}

// Two-component netlist engineered for an *exact* gain tie.  Component A
// (slower) holds the critical path; component B is one dummy sink lighter,
// so it is slightly faster.  Chain gates #2 and #4 of A carry heavy dummy
// fanout: upsizing either drops A's arrival below B's, and the post-move
// max delay becomes B's *untouched* arrival — bitwise the same double for
// both moves — so their gain/area ratios tie exactly, with no dependence
// on floating-point accumulation order.
netlist::Netlist tie_break_netlist() {
  netlist::Netlist nl("tie");
  const netlist::NodeId a = nl.add_input("a");
  const netlist::NodeId b = nl.add_input("b");
  const auto add_component = [&nl](const std::string& prefix,
                                   netlist::NodeId pi, int extra) {
    netlist::NodeId prev = pi;
    std::vector<netlist::NodeId> chain;
    for (int i = 0; i < 6; ++i) {
      prev = nl.add_gate(tech::GateFn::Not, {prev},
                         prefix + "n" + std::to_string(i));
      chain.push_back(prev);
    }
    nl.mark_output(prev);
    for (int pos : {2, 4}) {
      for (int d = 0; d < extra; ++d) {
        nl.mark_output(nl.add_gate(
            tech::GateFn::Not, {chain[pos]},
            prefix + "d" + std::to_string(pos) + "_" + std::to_string(d)));
      }
    }
    return chain;
  };
  add_component("A", a, 4);
  add_component("B", b, 3);
  return nl;
}

TEST(SizingTieBreakTest, IdenticalGainRatiosPickSameGateAtEveryThreadCount) {
  const netlist::Netlist nl = tie_break_netlist();
  const tech::Library lib;
  aging::AgingConditions cond;
  cond.sp_vectors = 256;
  // Constant inputs make every signal probability exact (0 or 1), so the
  // two components age identically to the last bit.
  cond.input_sp = {1.0, 1.0};
  const aging::AgingAnalyzer an(nl, lib, cond);
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();

  // Verify the tie premise: moves on A-chain gates 2 and 4 yield bitwise
  // the same trial delay (B's arrival), hence identical gain/area ratios,
  // and they beat the head gate's un-clipped gain.
  const std::vector<double> dvth = an.gate_dvth(policy);
  SizedTiming timing(an, dvth);
  const sta::TimingResult base = timing.analyze_current();
  std::vector<double> scratch;
  std::vector<double> arrival;
  const double trial2 = timing.evaluate_resize(2, 1.5, base.arrival, scratch,
                                                 arrival);
  const double trial4 = timing.evaluate_resize(4, 1.5, base.arrival, scratch,
                                                 arrival);
  ASSERT_EQ(trial2, trial4);
  ASSERT_LT(trial2, base.max_delay);
  const double trial0 = timing.evaluate_resize(0, 1.5, base.arrival, scratch,
                                                 arrival);
  ASSERT_GT(trial0, trial2);

  // The fold breaks the tie serially in path order, so every thread count
  // and the full-rebuild oracle must pick gate 2, never gate 4.
  const SizingParams params{.spec_margin_percent = 0.5, .size_step = 0.5,
                            .max_moves = 1};
  for (int n_threads : {1, 2, 8}) {
    for (bool oracle : {false, true}) {
      const common::ThreadBudget budget(n_threads);
      const SizingResult r =
          oracle ? testsupport::reference_size_for_lifetime(an, policy, params)
                 : size_for_lifetime(an, policy, params);
      SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads
                                        << " oracle=" << oracle);
      ASSERT_EQ(r.moves, 1);
      EXPECT_EQ(r.sizes[2], 1.5);
      EXPECT_EQ(r.sizes[4], 1.0);
      for (std::size_t gi = 0; gi < r.sizes.size(); ++gi) {
        if (gi != 2) {
          EXPECT_EQ(r.sizes[gi], 1.0) << "gate " << gi;
        }
      }
    }
  }
}

TEST_F(SizingTest, RejectsBadParameters) {
  EXPECT_THROW(size_for_lifetime(*analyzer_,
                                 aging::StandbyPolicy::all_stressed(),
                                 {.spec_margin_percent = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(size_for_lifetime(*analyzer_,
                                 aging::StandbyPolicy::all_stressed(),
                                 {.size_step = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(size_for_lifetime(*analyzer_,
                                 aging::StandbyPolicy::all_stressed(),
                                 {.max_size = 0.5}),
               std::invalid_argument);
}

TEST_F(SizingTest, RejectsNonFiniteParametersByName) {
  // Every check must fail on NaN: a NaN margin or step would make 0 moves
  // with met = 0, and a NaN max_size would lift the size cap.
  const double nan = std::nan("");
  const struct {
    SizingParams params;
    const char* name;
  } cases[] = {
      {{.spec_margin_percent = nan}, "spec_margin_percent"},
      {{.spec_margin_percent = HUGE_VAL}, "spec_margin_percent"},
      {{.size_step = nan}, "size_step"},
      {{.size_step = HUGE_VAL}, "size_step"},
      {{.max_size = nan}, "max_size"},
      {{.max_size = HUGE_VAL}, "max_size"},
      {{.max_moves = 0}, "max_moves"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    try {
      size_for_lifetime(*analyzer_, aging::StandbyPolicy::all_stressed(),
                        c.params);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.name), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace nbtisim::opt
