// Tests for the parallel aging/simulation pipeline (src/common/pool.h): the
// per-thread budget that sets every loop's width, the shared work pool
// (index coverage, nested-serial rule, exception propagation, concurrent
// loops), determinism across thread counts, the honored vector count of
// estimate_signal_stats, and the AgingConditions::input_sp override.

#include "common/pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "aging/aging.h"
#include "netlist/generators.h"
#include "sim/simulator.h"

namespace nbtisim {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using tech::GateFn;

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int n_threads : {1, 2, 8}) {
    const common::ThreadBudget budget(n_threads);
    std::vector<int> hits(1000, 0);
    common::parallel_for(1000, [&](int i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000)
        << n_threads;
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, HandlesEmptyAndTinyRanges) {
  const common::ThreadBudget budget(8);
  std::atomic<int> count{0};
  common::parallel_for(0, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 0);
  common::parallel_for(1, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, PropagatesFirstException) {
  for (int n_threads : {1, 4}) {
    const common::ThreadBudget budget(n_threads);
    EXPECT_THROW(common::parallel_for(100,
                                      [&](int i) {
                                        if (i == 37) {
                                          throw std::runtime_error("boom");
                                        }
                                      }),
                 std::runtime_error)
        << n_threads;
  }
}

TEST(ParallelForTest, ResolveThreadsHonorsExplicitCounts) {
  EXPECT_EQ(common::resolve_threads(3), 3);
  EXPECT_GE(common::resolve_threads(0), 1);
  EXPECT_GE(common::resolve_threads(-1), 1);
}

TEST(ParallelForTest, GrainCoversEveryIndexExactlyOnce) {
  for (int grain : {1, 7, 64, 1000}) {
    const common::ThreadBudget budget(4);
    std::vector<int> hits(1000, 0);
    common::parallel_for_grain(1000, grain, [&](int i) { ++hits[i]; });
    for (int h : hits) EXPECT_EQ(h, 1) << "grain " << grain;
  }
}

TEST(ParallelForTest, GrainPropagatesExceptions) {
  const common::ThreadBudget budget(4);
  EXPECT_THROW(common::parallel_for_grain(
                   256, 16,
                   [&](int i) {
                     if (i == 200) throw std::logic_error("boom");
                   }),
               std::logic_error);
}

// --------------------------------------------------------------------------
// The per-thread budget. Names carry "ThreadCount" so the TSan determinism
// slice runs them.

TEST(ThreadBudgetTest, ThreadCountOneKeepsLoopOnCaller) {
  const common::ThreadBudget budget(1);
  const std::thread::id me = std::this_thread::get_id();
  std::atomic<bool> on_caller{true};
  std::atomic<bool> inside_task{false};
  common::parallel_for(1000, [&](int) {
    if (std::this_thread::get_id() != me) on_caller = false;
    if (common::WorkPool::inside_task()) inside_task = true;
  });
  EXPECT_TRUE(on_caller.load());
  // A serial loop is not a pool task: loops it reaches read the budget too.
  EXPECT_FALSE(inside_task.load());
}

TEST(ThreadBudgetTest, ThreadCountScopesNestAndRestore) {
  const int outside = common::ThreadBudget::current();
  {
    const common::ThreadBudget outer(3);
    EXPECT_EQ(common::ThreadBudget::current(), 3);
    {
      const common::ThreadBudget inner(1);
      EXPECT_EQ(common::ThreadBudget::current(), 1);
    }
    EXPECT_EQ(common::ThreadBudget::current(), 3);
    // Unwinding through a scope restores the enclosing width too.
    EXPECT_THROW(
        {
          const common::ThreadBudget thrown(5);
          EXPECT_EQ(common::ThreadBudget::current(), 5);
          throw std::runtime_error("boom");
        },
        std::runtime_error);
    EXPECT_EQ(common::ThreadBudget::current(), 3);
  }
  EXPECT_EQ(common::ThreadBudget::current(), outside);
}

TEST(ThreadBudgetTest, ThreadCountZeroMeansHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int expected = hw == 0 ? 1 : static_cast<int>(hw);
  EXPECT_EQ(common::ThreadBudget::current(), expected);  // no scope open
  {
    const common::ThreadBudget one(1);
    const common::ThreadBudget zero(0);
    EXPECT_EQ(common::ThreadBudget::current(), expected);
  }
  EXPECT_THROW(common::ThreadBudget(-1), std::invalid_argument);
  EXPECT_EQ(common::ThreadBudget::current(), expected);
}

TEST(ThreadBudgetTest, ThreadCountIgnoredInsidePoolTask) {
  const common::ThreadBudget budget(2);
  std::array<std::atomic<bool>, 2> stayed{};
  common::parallel_for(2, [&](int outer) {
    stayed[outer] = true;
    const std::thread::id me = std::this_thread::get_id();
    for (int width : {0, 1, 8}) {
      const common::ThreadBudget inner(width);
      common::parallel_for(64, [&](int) {
        if (std::this_thread::get_id() != me) stayed[outer] = false;
      });
    }
  });
  EXPECT_TRUE(stayed[0].load());
  EXPECT_TRUE(stayed[1].load());
}

TEST(ThreadBudgetTest, ThreadCountsOfTwoThreadsStayTheirOwn) {
  // Both scopes are open at once; each thread sees only its own width, and
  // the serial thread's loop never leaves it while the other fans out.
  std::barrier sync(2);
  int width_a = 0;
  int width_b = 0;
  std::atomic<bool> a_on_caller{true};
  std::vector<int> hits_b(1000, 0);
  std::thread ta([&] {
    const common::ThreadBudget budget(1);
    sync.arrive_and_wait();
    width_a = common::ThreadBudget::current();
    const std::thread::id me = std::this_thread::get_id();
    common::parallel_for(1000, [&](int) {
      if (std::this_thread::get_id() != me) a_on_caller = false;
    });
    sync.arrive_and_wait();
  });
  std::thread tb([&] {
    const common::ThreadBudget budget(4);
    sync.arrive_and_wait();
    width_b = common::ThreadBudget::current();
    common::parallel_for(1000, [&](int i) { ++hits_b[i]; });
    sync.arrive_and_wait();
  });
  ta.join();
  tb.join();
  EXPECT_EQ(width_a, 1);
  EXPECT_EQ(width_b, 4);
  EXPECT_TRUE(a_on_caller.load());
  for (int h : hits_b) EXPECT_EQ(h, 1);
  // Neither scope leaked into this thread.
  EXPECT_EQ(common::ThreadBudget::current(), common::resolve_threads(0));
}

// --------------------------------------------------------------------------
// The shared work pool itself.

TEST(WorkPoolTest, NestedParallelForRunsSerialOnTheIssuingWorker) {
  ASSERT_FALSE(common::WorkPool::inside_task());
  std::array<std::atomic<int>, 4> inner_hits{};
  std::array<bool, 4> saw_inside{};
  std::array<bool, 4> inner_stayed_on_thread{};
  const common::ThreadBudget budget(4);
  common::parallel_for(4, [&](int outer) {
    saw_inside[outer] = common::WorkPool::inside_task();
    const std::thread::id me = std::this_thread::get_id();
    bool same_thread = true;
    // Whatever budget the task opens, its loops stay on it.
    const common::ThreadBudget inner(8);
    common::parallel_for(100, [&](int) {
      same_thread &= std::this_thread::get_id() == me;
      ++inner_hits[outer];
    });
    inner_stayed_on_thread[outer] = same_thread;
  });
  EXPECT_FALSE(common::WorkPool::inside_task());
  for (int i = 0; i < 4; ++i) {
    // Each outer body ran as a pool task (or on the participating caller,
    // which counts the same) and its inner loop ran serially on it.
    EXPECT_TRUE(saw_inside[i]) << i;
    EXPECT_TRUE(inner_stayed_on_thread[i]) << i;
    EXPECT_EQ(inner_hits[i].load(), 100) << i;
  }
}

TEST(WorkPoolTest, WorkersGrowOnDemandAndAreReused) {
  const auto run_at = [](int n_threads) {
    const common::ThreadBudget budget(n_threads);
    common::parallel_for(64, [](int) {});
  };
  run_at(4);
  const int after_four = common::WorkPool::global().workers();
  EXPECT_GE(after_four, 3);  // caller participates; k-1 workers suffice
  run_at(2);
  EXPECT_EQ(common::WorkPool::global().workers(), after_four);  // no shrink
  run_at(6);
  EXPECT_GE(common::WorkPool::global().workers(), 5);
}

// Two loops submitted from two threads share the pool's workers yet stay
// independent: every index of each loop runs exactly once and each loop's
// per-index results are what a serial run produces.
TEST(WorkPoolTest, ConcurrentLoopsAreDeterministic) {
  constexpr int kN = 4000;
  std::vector<double> serial(kN);
  for (int i = 0; i < kN; ++i) serial[i] = std::sqrt(i) * 3.25;

  std::vector<double> a(kN, -1.0), b(kN, -1.0);
  std::thread ta([&] {
    const common::ThreadBudget budget(4);
    common::parallel_for(kN, [&](int i) { a[i] = std::sqrt(i) * 3.25; });
  });
  std::thread tb([&] {
    const common::ThreadBudget budget(4);
    common::parallel_for(kN, [&](int i) { b[i] = std::sqrt(i) * 3.25; });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a, serial);
  EXPECT_EQ(b, serial);
}

TEST(WorkPoolTest, ExceptionInOneLoopLeavesPoolUsable) {
  const common::ThreadBudget budget(4);
  EXPECT_THROW(common::parallel_for(
                   100,
                   [&](int i) {
                     if (i == 0) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  std::vector<int> hits(100, 0);
  common::parallel_for(100, [&](int i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(SignalStatsParallelTest, BitIdenticalAcrossThreadCounts) {
  const Netlist nl = netlist::iscas85_like("c432");
  const std::vector<double> sp(nl.num_inputs(), 0.5);
  sim::SignalStats serial;
  {
    const common::ThreadBudget one(1);
    serial = sim::estimate_signal_stats(nl, sp, 4096, 7);
  }
  for (int n_threads : {2, 8, 0}) {
    const common::ThreadBudget budget(n_threads);
    const sim::SignalStats par = sim::estimate_signal_stats(nl, sp, 4096, 7);
    EXPECT_EQ(serial.probability, par.probability) << n_threads;
    EXPECT_EQ(serial.activity, par.activity) << n_threads;
    EXPECT_EQ(serial.n_vectors, par.n_vectors) << n_threads;
  }
}

TEST(SignalStatsParallelTest, BitIdenticalForPartialWordCounts) {
  const Netlist nl = netlist::make_alu("alu", 4);
  const std::vector<double> sp(nl.num_inputs(), 0.3);
  for (int n_vectors : {100, 1000}) {
    sim::SignalStats serial;
    {
      const common::ThreadBudget one(1);
      serial = sim::estimate_signal_stats(nl, sp, n_vectors, 11);
    }
    for (int n_threads : {2, 8}) {
      const common::ThreadBudget budget(n_threads);
      const sim::SignalStats par =
          sim::estimate_signal_stats(nl, sp, n_vectors, 11);
      EXPECT_EQ(serial.probability, par.probability)
          << n_vectors << "/" << n_threads;
      EXPECT_EQ(serial.activity, par.activity)
          << n_vectors << "/" << n_threads;
    }
  }
}

// Regression for the padding bug: n_vectors used to be silently rounded up
// to a multiple of 64, with probabilities/activities computed over the
// padded count.
TEST(SignalStatsParallelTest, HonorsVectorCountNotDivisibleBy64) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId zero = nl.add_gate(GateFn::Xor, {a, a}, "zero");
  const NodeId one = nl.add_gate(GateFn::Xnor, {b, b}, "one");
  nl.mark_output(zero);
  nl.mark_output(one);

  const std::vector<double> sp{0.5, 0.5};
  const sim::SignalStats st = sim::estimate_signal_stats(nl, sp, 100, 3);
  EXPECT_EQ(st.n_vectors, 100);
  EXPECT_DOUBLE_EQ(st.probability[zero], 0.0);
  EXPECT_DOUBLE_EQ(st.probability[one], 1.0);
  EXPECT_DOUBLE_EQ(st.activity[zero], 0.0);
  EXPECT_DOUBLE_EQ(st.activity[one], 0.0);

  // Every probability must be an exact multiple of 1/100 — the denominator
  // is the requested count, not the padded word count.
  for (int n = 0; n < nl.num_nodes(); ++n) {
    const double scaled = st.probability[n] * 100.0;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9) << n;
  }
}

TEST(SignalStatsParallelTest, SingleVectorHasZeroActivity) {
  const Netlist nl = netlist::make_parity_tree("p", 4);
  const sim::SignalStats st =
      sim::estimate_signal_stats(nl, std::vector<double>(4, 0.5), 1, 1);
  EXPECT_EQ(st.n_vectors, 1);
  for (int n = 0; n < nl.num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(st.activity[n], 0.0);
    EXPECT_TRUE(st.probability[n] == 0.0 || st.probability[n] == 1.0);
  }
}

class AgingParallelTest : public ::testing::Test {
 protected:
  tech::Library lib_;
  netlist::Netlist c432_ = netlist::iscas85_like("c432");

  aging::AgingConditions cond() const {
    aging::AgingConditions c;
    c.sp_vectors = 1024;
    return c;
  }
};

TEST_F(AgingParallelTest, GateDvthBitIdenticalAcrossThreadCounts) {
  std::vector<bool> v(c432_.num_inputs());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i % 2) == 0;
  for (const auto& policy :
       {aging::StandbyPolicy::all_stressed(),
        aging::StandbyPolicy::from_vector(v)}) {
    std::vector<double> ref;
    {
      // Construction runs the signal-statistics pass at the same budget.
      const common::ThreadBudget one(1);
      ref = aging::AgingAnalyzer(c432_, lib_, cond()).gate_dvth(policy);
    }
    for (int n_threads : {2, 8}) {
      const common::ThreadBudget budget(n_threads);
      const aging::AgingAnalyzer par(c432_, lib_, cond());
      EXPECT_EQ(ref, par.gate_dvth(policy)) << n_threads;
    }
  }
}

TEST_F(AgingParallelTest, DegradationSeriesMatchesAnalyzePerPoint) {
  // The cached-descriptor fast path must agree with point-by-point analyze().
  const common::ThreadBudget budget(8);
  const aging::AgingAnalyzer an(c432_, lib_, cond());
  const auto policy = aging::StandbyPolicy::all_stressed();
  const auto series = an.degradation_series(policy, 1e6, 3e8, 5);
  ASSERT_EQ(series.size(), 5u);
  for (const auto& [t, pct] : series) {
    EXPECT_DOUBLE_EQ(pct, an.analyze(policy, t).percent()) << t;
  }
}

TEST_F(AgingParallelTest, CacheInvalidationKeepsResults) {
  const common::ThreadBudget budget(2);
  const aging::AgingAnalyzer an(c432_, lib_, cond());
  const auto policy = aging::StandbyPolicy::all_relaxed();
  const std::vector<double> before = an.gate_dvth(policy);
  an.invalidate_stress_cache();
  EXPECT_EQ(before, an.gate_dvth(policy));
}

TEST_F(AgingParallelTest, InputSpOverrideChangesStress) {
  const aging::AgingConditions uniform = cond();
  aging::AgingConditions skewed = cond();
  skewed.input_sp.assign(c432_.num_inputs(), 0.95);
  const aging::AgingAnalyzer an_u(c432_, lib_, uniform);
  const aging::AgingAnalyzer an_s(c432_, lib_, skewed);
  // PIs held at 1 with 95% probability relax the PMOS devices they drive;
  // total circuit stress under the active-phase component must differ.
  EXPECT_NE(an_u.gate_dvth(aging::StandbyPolicy::all_relaxed()),
            an_s.gate_dvth(aging::StandbyPolicy::all_relaxed()));
}

TEST_F(AgingParallelTest, ExplicitHalfInputSpMatchesDefault) {
  aging::AgingConditions explicit_half = cond();
  explicit_half.input_sp.assign(c432_.num_inputs(), 0.5);
  const aging::AgingAnalyzer a(c432_, lib_, cond());
  const aging::AgingAnalyzer b(c432_, lib_, explicit_half);
  EXPECT_EQ(a.signal_stats().probability, b.signal_stats().probability);
}

TEST_F(AgingParallelTest, InputSpSizeMismatchThrows) {
  aging::AgingConditions bad = cond();
  bad.input_sp.assign(3, 0.5);
  EXPECT_THROW(aging::AgingAnalyzer(c432_, lib_, bad), std::invalid_argument);
}

TEST_F(AgingParallelTest, InputSpRangeIsValidated) {
  aging::AgingConditions bad = cond();
  bad.input_sp.assign(c432_.num_inputs(), 1.5);
  EXPECT_THROW(aging::AgingAnalyzer(c432_, lib_, bad), std::invalid_argument);
}

}  // namespace
}  // namespace nbtisim
