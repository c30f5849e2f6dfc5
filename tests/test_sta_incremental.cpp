// Tests for the cached netlist levelization (src/netlist) and the
// incremental STA engine (src/sta/incremental.*), including the random
// edit-sequence differential sweep against a fresh StaEngine and the
// multi-path sizing quality regression against the naive reference loop.

#include "sta/incremental.h"

#include <gtest/gtest.h>

#include <random>

#include "netlist/generators.h"
#include "opt/sizing.h"
#include "support/reference.h"

namespace nbtisim {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using sta::IncrementalSta;
using sta::StaEngine;
using sta::TimingResult;

// ---------------------------------------------------------------------------
// Levelization cache

TEST(LevelizationTest, WavefrontsPartitionGatesByLevel) {
  const Netlist nl = netlist::make_random_dag(
      "r", {.n_inputs = 12, .n_outputs = 6, .n_gates = 200, .seed = 3});
  const netlist::Levelization& lev = nl.levelization();

  ASSERT_EQ(static_cast<int>(lev.node_level.size()), nl.num_nodes());
  EXPECT_EQ(lev.depth, nl.depth());

  // Every gate appears in exactly one wavefront, at its output's level,
  // and strictly after all of its fanins' levels.
  std::vector<int> seen(nl.num_gates(), 0);
  int total = 0;
  for (int level = 0; level <= lev.depth; ++level) {
    for (int gi : lev.wavefront(level)) {
      ++seen[gi];
      ++total;
      const netlist::Gate& g = nl.gate(gi);
      EXPECT_EQ(lev.node_level[g.output], level) << "gate " << gi;
      for (NodeId in : g.fanins) {
        EXPECT_LT(lev.node_level[in], level) << "gate " << gi;
      }
    }
  }
  EXPECT_EQ(total, nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) EXPECT_EQ(seen[gi], 1);
}

TEST(LevelizationTest, FanoutCsrMatchesFanoutGates) {
  const Netlist nl = netlist::make_multiplier("m", 5);
  const netlist::Levelization& lev = nl.levelization();
  for (NodeId n = 0; n < nl.num_nodes(); ++n) {
    const std::span<const int> csr = lev.fanout(n);
    const std::span<const int> want = nl.fanout_gates(n);
    ASSERT_EQ(csr.size(), want.size()) << "net " << n;
    for (std::size_t i = 0; i < csr.size(); ++i) {
      EXPECT_EQ(csr[i], want[i]) << "net " << n;
    }
  }
}

TEST(LevelizationTest, CacheIsReusedUntilMutation) {
  Netlist nl("mut");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(tech::GateFn::And, {a, b}, "x");
  nl.mark_output(x);

  const netlist::Levelization* first = &nl.levelization();
  EXPECT_EQ(first, &nl.levelization());  // cached, not rebuilt
  EXPECT_EQ(first->depth, 1);

  // A mutation invalidates the cache; the next call sees the new gate.
  const NodeId y = nl.add_gate(tech::GateFn::Not, {x}, "y");
  nl.mark_output(y);
  const netlist::Levelization& second = nl.levelization();
  EXPECT_EQ(second.depth, 2);
  EXPECT_EQ(second.node_level[y], 2);
}

// ---------------------------------------------------------------------------
// StaEngine::critical_delay (arrival-only fast path)

TEST(CriticalDelayDifferentialTest, MatchesAnalyzeBitwise) {
  const tech::Library lib;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> uni(0.5, 2.0);
  for (int which = 0; which < 8; ++which) {
    const Netlist nl = netlist::make_random_dag(
        "r" + std::to_string(which),
        {.n_inputs = 6 + which, .n_outputs = 4, .n_gates = 80 + 50 * which,
         .seed = static_cast<std::uint64_t>(which + 1)});
    const StaEngine sta(nl, lib);
    std::vector<double> delays = sta.gate_delays(400.0);
    std::vector<double> scratch;
    for (int trial = 0; trial < 4; ++trial) {
      for (double& d : delays) d *= uni(rng);
      EXPECT_EQ(sta.critical_delay(delays, scratch),
                sta.analyze(delays).max_delay)
          << "circuit " << which << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalSta: random edit-sequence differential sweep

class IncrementalFixture {
 public:
  explicit IncrementalFixture(Netlist nl)
      : nl_(std::move(nl)), sta_(nl_, lib_) {}

  const Netlist& netlist() const { return nl_; }
  const StaEngine& sta() const { return sta_; }

  /// Bitwise-compares every query of \p inc against a fresh analyze /
  /// slacks run over \p delays.
  void expect_fresh_identical(IncrementalSta& inc,
                              const std::vector<double>& delays,
                              const std::string& where) const {
    const TimingResult want = sta_.analyze(delays);
    EXPECT_EQ(inc.max_delay(), want.max_delay) << where;
    const std::span<const double> arr = inc.arrivals();
    ASSERT_EQ(static_cast<int>(arr.size()), nl_.num_nodes()) << where;
    for (int n = 0; n < nl_.num_nodes(); ++n) {
      EXPECT_EQ(arr[n], want.arrival[n]) << where << " net " << n;
    }
    const TimingResult got = inc.timing();
    EXPECT_EQ(got.max_delay, want.max_delay) << where;
    EXPECT_EQ(got.arrival, want.arrival) << where;
    EXPECT_EQ(got.critical_path, want.critical_path) << where;
    EXPECT_EQ(inc.slacks(), sta_.slacks(want, delays)) << where;
  }

 private:
  tech::Library lib_;
  Netlist nl_;
  StaEngine sta_;
};

TEST(IncrementalStaDifferentialTest, RandomEditSequencesMatchFreshSta) {
  // 6 circuits x 20 sequences = 120 independent edit sequences, each a
  // random interleaving of single and batched set_delay edits with
  // max_delay / arrivals / timing / slacks queries — every query answered
  // bit-identically to a fresh StaEngine run over the same delay vector.
  std::vector<Netlist> circuits;
  circuits.push_back(netlist::make_multiplier("m4", 4));
  circuits.push_back(netlist::make_alu("alu8", 8));
  circuits.push_back(netlist::make_parity_tree("par24", 24));
  for (int which = 0; which < 3; ++which) {
    circuits.push_back(netlist::make_random_dag(
        "r" + std::to_string(which),
        {.n_inputs = 8 + 4 * which, .n_outputs = 5,
         .n_gates = 120 + 90 * which,
         .seed = static_cast<std::uint64_t>(31 * which + 7)}));
  }

  int sequences = 0;
  for (const Netlist& nl : circuits) {
    const IncrementalFixture fx(nl);
    const std::vector<double> base = fx.sta().gate_delays(400.0);
    for (int seq = 0; seq < 20; ++seq) {
      std::mt19937_64 rng(1000003ull * sequences + 17);
      std::uniform_real_distribution<double> scale(0.4, 2.5);
      std::uniform_int_distribution<int> pick_gate(0, nl.num_gates() - 1);
      std::uniform_int_distribution<int> pick_batch(1, 4);
      std::uniform_int_distribution<int> pick_query(0, 3);

      std::vector<double> delays = base;
      IncrementalSta inc(fx.sta(), delays);
      for (int step = 0; step < 10; ++step) {
        const int batch = pick_batch(rng);
        for (int e = 0; e < batch; ++e) {
          const int gi = pick_gate(rng);
          // Every few edits, restage the identical value (a bitwise no-op).
          const double d =
              (step + e) % 5 == 4 ? delays[gi] : base[gi] * scale(rng);
          inc.set_delay(gi, d);
          delays[gi] = d;
        }
        const std::string where = nl.name() + " seq " +
                                  std::to_string(seq) + " step " +
                                  std::to_string(step);
        switch (pick_query(rng)) {
          case 0:
            EXPECT_EQ(inc.max_delay(), fx.sta().analyze(delays).max_delay)
                << where;
            break;
          case 1: {
            const TimingResult want = fx.sta().analyze(delays);
            const std::span<const double> arr = inc.arrivals();
            for (int n = 0; n < nl.num_nodes(); ++n) {
              ASSERT_EQ(arr[n], want.arrival[n]) << where << " net " << n;
            }
            break;
          }
          case 2: {
            const TimingResult want = fx.sta().analyze(delays);
            const TimingResult got = inc.timing();
            EXPECT_EQ(got.max_delay, want.max_delay) << where;
            EXPECT_EQ(got.critical_path, want.critical_path) << where;
            break;
          }
          default:
            EXPECT_EQ(inc.slacks(),
                      fx.sta().slacks(fx.sta().analyze(delays), delays))
                << where;
            break;
        }
      }
      fx.expect_fresh_identical(inc, delays, nl.name() + " seq end");
      ++sequences;
    }
  }
  EXPECT_GE(sequences, 100);
}

TEST(IncrementalStaDifferentialTest, CheckpointRollbackRestoresExactState) {
  const IncrementalFixture fx(netlist::make_random_dag(
      "cp", {.n_inputs = 10, .n_outputs = 5, .n_gates = 250, .seed = 5}));
  const Netlist& nl = fx.netlist();
  const std::vector<double> base = fx.sta().gate_delays(400.0);

  for (int seq = 0; seq < 25; ++seq) {
    std::mt19937_64 rng(77 * seq + 5);
    std::uniform_real_distribution<double> scale(0.4, 2.5);
    std::uniform_int_distribution<int> pick_gate(0, nl.num_gates() - 1);

    std::vector<double> delays = base;
    IncrementalSta inc(fx.sta(), delays);
    // Pre-checkpoint edits, some left unflushed when the scope opens.
    for (int e = 0; e < 4; ++e) {
      const int gi = pick_gate(rng);
      const double d = base[gi] * scale(rng);
      inc.set_delay(gi, d);
      delays[gi] = d;
    }
    if (seq % 2 == 0) inc.slacks();  // exercise resident required times

    inc.checkpoint();
    std::vector<double> staged = delays;
    for (int e = 0; e < 6; ++e) {
      const int gi = pick_gate(rng);
      const double d = base[gi] * scale(rng);
      inc.set_delay(gi, d);
      staged[gi] = d;
    }
    // Inside the scope every query reflects the staged edits...
    fx.expect_fresh_identical(inc, staged, "seq " + std::to_string(seq) +
                                               " staged");
    inc.rollback();
    // ...and rollback restores the pre-checkpoint state bitwise.
    fx.expect_fresh_identical(inc, delays, "seq " + std::to_string(seq) +
                                               " rolled back");

    // A committed scope keeps its edits instead.
    inc.checkpoint();
    for (int e = 0; e < 3; ++e) {
      const int gi = pick_gate(rng);
      const double d = base[gi] * scale(rng);
      inc.set_delay(gi, d);
      delays[gi] = d;
    }
    inc.commit();
    fx.expect_fresh_identical(inc, delays, "seq " + std::to_string(seq) +
                                               " committed");
  }
}

TEST(IncrementalStaTest, EditsTouchFarFewerGatesThanFullRebuilds) {
  // The point of the engine: one edit re-times the dirty cone, not the
  // whole circuit.
  const tech::Library lib;
  const Netlist nl = netlist::make_random_dag(
      "big", {.n_inputs = 20, .n_outputs = 10, .n_gates = 2000, .seed = 9});
  const StaEngine sta(nl, lib);
  const std::vector<double> base = sta.gate_delays(400.0);
  IncrementalSta inc(sta, base);
  inc.max_delay();

  const int kEdits = 50;
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int> pick_gate(0, nl.num_gates() - 1);
  for (int e = 0; e < kEdits; ++e) {
    const int gi = pick_gate(rng);
    inc.set_delay(gi, base[gi] * 1.01);
    inc.max_delay();
  }
  EXPECT_LT(inc.gates_retimed(),
            static_cast<std::uint64_t>(kEdits) * nl.num_gates() / 4);
}

TEST(IncrementalStaTest, RejectsBadUsage) {
  const tech::Library lib;
  const Netlist nl = netlist::make_ripple_adder("add", 4);
  const StaEngine sta(nl, lib);
  EXPECT_THROW(IncrementalSta(sta, std::vector<double>(2, 1.0)),
               std::invalid_argument);

  IncrementalSta inc(sta, sta.gate_delays(400.0));
  EXPECT_THROW(inc.set_delay(-1, 1.0), std::out_of_range);
  EXPECT_THROW(inc.set_delay(nl.num_gates(), 1.0), std::out_of_range);
  EXPECT_THROW(inc.rollback(), std::logic_error);
  EXPECT_THROW(inc.commit(), std::logic_error);
  inc.checkpoint();
  EXPECT_THROW(inc.checkpoint(), std::logic_error);
  inc.commit();
}

// ---------------------------------------------------------------------------
// Multi-path sizing: quality regression against the classic loop

class MultiPathSizingTest : public ::testing::Test {
 protected:
  MultiPathSizingTest() : c432_(netlist::iscas85_like("c432")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c432_, lib_, cond_);
  }

  tech::Library lib_;
  Netlist c432_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
};

TEST_F(MultiPathSizingTest, WindowModeDifferentialAgainstClassicLoop) {
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
  const opt::SizingParams classic{.spec_margin_percent = 3.0,
                                  .size_step = 0.5,
                                  .max_moves = 400};
  const opt::SizingResult ref =
      testsupport::reference_size_for_lifetime(*analyzer_, policy, classic);
  ASSERT_TRUE(ref.met);
  ASSERT_GT(ref.moves, 1);

  opt::SizingParams multi = classic;
  multi.slack_window_percent = 5.0;
  multi.moves_per_round = 4;
  const opt::SizingResult got =
      opt::size_for_lifetime(*analyzer_, policy, multi);

  // Same spec, met within the same move budget, in no more rounds than the
  // classic loop spends (one move == one full round there), and the final
  // aged delay is never worse.
  EXPECT_EQ(got.spec, ref.spec);
  EXPECT_TRUE(got.met);
  EXPECT_LE(got.aged_after, ref.aged_after);
  EXPECT_LE(got.rounds, ref.moves);
  EXPECT_GE(got.moves, got.rounds);
  EXPECT_EQ(got.aged_before, ref.aged_before);
}

TEST_F(MultiPathSizingTest, SingleMoveRoundsStillMeetSpec) {
  // k = 1 window mode: one commit per round, but candidates come from the
  // whole slack window instead of one critical path.
  const opt::SizingResult r = opt::size_for_lifetime(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = 3.0, .size_step = 0.5, .max_moves = 400,
       .slack_window_percent = 2.0, .moves_per_round = 1});
  EXPECT_TRUE(r.met);
  EXPECT_EQ(r.moves, r.rounds);
  EXPECT_LT(r.aged_after, r.aged_before);
  for (double s : r.sizes) {
    EXPECT_GE(s, 1.0);
    EXPECT_LE(s, 4.0 + 1e-12);
  }
}

TEST_F(MultiPathSizingTest, RejectsBadWindowParameters) {
  EXPECT_THROW(
      opt::size_for_lifetime(*analyzer_, aging::StandbyPolicy::all_stressed(),
                             {.slack_window_percent = -1.0}),
      std::invalid_argument);
  EXPECT_THROW(
      opt::size_for_lifetime(*analyzer_, aging::StandbyPolicy::all_stressed(),
                             {.moves_per_round = 0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace nbtisim
