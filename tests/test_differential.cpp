// Differential tests: the optimized evaluation paths (incremental
// SizedTiming, parallel sizing argmax, control-point trials on one
// analyzer, the lazy lifetime grid, the one Monte-Carlo sampler,
// horizon-batched derate, batched electrothermal sweeps, the SoA
// degradation kernel and the shooting stack solver) property-tested against
// the deliberately naive reference evaluators — support/reference.h and the
// per-device scalar model — across random dag: netlists, seeds,
// temperatures, duty cycles, standby policies, thread counts
// (common::ThreadBudget scopes) and horizons.  Kernel
// comparisons are exact (double ==): the optimized paths are bit-identical
// to brute force by construction, and these tests are what enforce that
// contract.  The shooting stack solver is bounded by its documented
// agreement with nested bisection (tech/stack.h).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "aging/aging.h"
#include "analysis/analysis.h"
#include "analysis/context.h"
#include "common/json.h"
#include "common/pool.h"
#include "common/rng.h"
#include "nbti/rd_kernel.h"
#include "netlist/generators.h"
#include "opt/inc_insertion.h"
#include "opt/sizing.h"
#include "opt/sleep_transistor.h"
#include "report/derate.h"
#include "support/reference.h"
#include "tech/library.h"
#include "tech/stack.h"
#include "tech/units.h"
#include "thermal/electrothermal.h"
#include "variation/criticality.h"
#include "variation/lifetime.h"
#include "variation/variation.h"

namespace nbtisim {
namespace {

aging::AgingConditions fast_conditions() {
  aging::AgingConditions cond;
  cond.sp_vectors = 256;  // small Monte-Carlo pass; exactness is what is
                          // under test, not the statistics
  return cond;
}

netlist::Netlist random_dag(int n_inputs, int n_gates, std::uint64_t seed) {
  netlist::RandomDagSpec spec;
  spec.n_inputs = n_inputs;
  spec.n_outputs = n_inputs > 4 ? n_inputs / 2 : 2;
  spec.n_gates = n_gates;
  spec.seed = seed;
  return netlist::make_random_dag("dag", spec);
}

TEST(DifferentialTest, IncrementalSizedTimingMatchesBruteForceRebuild) {
  struct Case {
    int inputs;
    int gates;
    std::uint64_t netlist_seed;
    std::uint64_t step_seed;
    double years;
  };
  const std::vector<Case> cases = {
      {8, 40, 1, 11, 10.0},  {8, 40, 2, 12, 3.0},   {8, 60, 3, 13, 10.0},
      {10, 60, 4, 14, 1.0},  {10, 80, 5, 15, 10.0}, {12, 80, 6, 16, 5.0},
      {12, 100, 7, 17, 2.0}, {16, 100, 8, 18, 10.0}, {16, 120, 9, 19, 7.0},
      {6, 30, 10, 20, 10.0}, {20, 150, 11, 21, 4.0}, {14, 90, 12, 22, 10.0},
  };

  const tech::Library lib;
  int checked = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "dag:" << c.inputs << "x" << c.gates
                                      << "@" << c.netlist_seed << " years="
                                      << c.years);
    const netlist::Netlist nl =
        random_dag(c.inputs, c.gates, c.netlist_seed);
    const aging::AgingAnalyzer an(nl, lib, fast_conditions());
    const std::vector<double> dvth = an.gate_dvth(
        aging::StandbyPolicy::all_stressed(), c.years * kSecondsPerYear);

    opt::SizedTiming timing(an, dvth);
    std::vector<double> sizes(nl.num_gates(), 1.0);
    timing.set_sizes(sizes);

    std::mt19937_64 rng(c.step_seed);
    std::vector<double> scratch;
    std::vector<double> arrival;
    for (int step = 0; step < 10; ++step) {
      const int gate = static_cast<int>(
          rng() % static_cast<std::uint64_t>(nl.num_gates()));
      const double new_size =
          1.0 + 0.25 * static_cast<double>(1 + rng() % 12);  // (1, 4]

      // Trial evaluation vs a from-scratch rebuild with the trial sizes.
      const double got = timing.evaluate_resize(
          gate, new_size, timing.analyze_current().arrival, scratch, arrival);
      std::vector<double> trial_sizes = sizes;
      trial_sizes[gate] = new_size;
      const std::vector<double> want_delays =
          testsupport::reference_aged_delays(an, dvth, trial_sizes);
      ASSERT_EQ(scratch.size(), want_delays.size());
      for (std::size_t gi = 0; gi < want_delays.size(); ++gi) {
        ASSERT_EQ(scratch[gi], want_delays[gi]) << "gate " << gi;
      }
      EXPECT_EQ(got, an.sta().analyze(want_delays).max_delay);
      ++checked;

      // Commit roughly every other step and re-check the cached vector.
      if (rng() & 1) {
        timing.commit_resize(gate, new_size);
        sizes[gate] = new_size;
        const std::vector<double> want_cached =
            testsupport::reference_aged_delays(an, dvth, sizes);
        for (std::size_t gi = 0; gi < want_cached.size(); ++gi) {
          ASSERT_EQ(timing.current_delays()[gi], want_cached[gi])
              << "gate " << gi;
        }
        EXPECT_EQ(timing.analyze_current().max_delay,
                  an.sta().analyze(want_cached).max_delay);
        ++checked;
      }
    }
  }
  // The acceptance bar for this suite: at least 100 randomized differential
  // comparisons of the incremental path against the brute-force rebuild.
  EXPECT_GE(checked, 100);
}

TEST(DifferentialTest, SizeForLifetimeMatchesReferenceAcrossThreadCounts) {
  const std::vector<std::uint64_t> seeds = {3, 7, 21, 42};
  const tech::Library lib;
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "dag seed " << seed);
    const netlist::Netlist nl = random_dag(12, 80, seed);
    const aging::AgingAnalyzer an(nl, lib, fast_conditions());
    const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
    const opt::SizingParams params{.spec_margin_percent = 1.0,
                                   .size_step = 0.5, .max_moves = 30};

    const opt::SizingResult want =
        testsupport::reference_size_for_lifetime(an, policy, params);
    EXPECT_GT(want.moves, 0);  // the comparison must exercise the loop
    for (int n_threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads);
      const common::ThreadBudget budget(n_threads);
      const opt::SizingResult got = opt::size_for_lifetime(an, policy, params);
      EXPECT_EQ(got.sizes, want.sizes);
      EXPECT_EQ(got.moves, want.moves);
      EXPECT_EQ(got.met, want.met);
      EXPECT_EQ(got.fresh_delay, want.fresh_delay);
      EXPECT_EQ(got.spec, want.spec);
      EXPECT_EQ(got.aged_before, want.aged_before);
      EXPECT_EQ(got.aged_after, want.aged_after);
    }
  }
}

// Sizing times circuits with the STA's load sum, so with every size at 1 its
// delays are the analyzer's aged delays and its critical delay the aged
// delay the "aging" analysis reports, bit for bit, on the analyzer a CLI
// verb builds (default Params and Condition).
TEST(DifferentialTest, SizedTimingAtUnitSizesIsTheAnalyzersAgedTiming) {
  for (const char* spec : {"c432", "c5315", "dag:16x300@5"}) {
    SCOPED_TRACE(spec);
    analysis::ContextPool pool(analysis::Params{});
    analysis::EvalContext ctx = pool.context(spec, analysis::Condition{});
    const aging::AgingAnalyzer& an = ctx.aging();
    const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
    const std::vector<double> dvth = an.gate_dvth(policy);
    const opt::SizedTiming timing(an, dvth);

    const std::vector<double> want = an.aged_gate_delays(dvth);
    const std::vector<double>& got = timing.current_delays();
    ASSERT_EQ(got.size(), want.size());
    int differing = 0;
    for (std::size_t gi = 0; gi < want.size(); ++gi) {
      differing += got[gi] != want[gi];
    }
    EXPECT_EQ(differing, 0) << "of " << want.size() << " gate delays";
    EXPECT_EQ(timing.analyze_current().max_delay,
              an.analyze(policy).aged_delay);
  }
}

TEST(DifferentialTest, LazyLifetimeGridMatchesEagerReference) {
  // A grid point's nominal dVth is computed by its first reader, once, under
  // a once_flag the pool's workers share; the oracle computes every point up
  // front and bisects serially.  The cases cover survivors (40 %), mid-grid
  // crossings (4-10 %) and dies that fail at the first grid point.
  struct Case {
    double margin;
    double sigma_vth;
  };
  const Case cases[] = {{40.0, 0.012}, {4.0, 0.012}, {6.0, 0.012},
                        {10.0, 0.012}, {0.5, 0.03}};
  const tech::Library lib;
  aging::AgingConditions cond = fast_conditions();
  cond.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
  int survivors = 0;
  int crossings = 0;
  int dead_on_arrival = 0;
  for (const char* spec : {"c432", "dag:16x300@5", "mult:8"}) {
    const netlist::Netlist nl = analysis::load_netlist_spec(spec, false);
    const aging::AgingAnalyzer an(nl, lib, cond);
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message() << spec << " margin=" << c.margin
                                        << " sigma=" << c.sigma_vth);
      const variation::LifetimeParams params{.spec_margin_percent = c.margin,
                                             .sigma_vth = c.sigma_vth,
                                             .samples = 40, .seed = 13};
      variation::LifetimeResult want;
      {
        const common::ThreadBudget serial(1);
        want = testsupport::reference_lifetime_distribution(an, policy,
                                                            params);
      }
      const double t_first = params.max_time /
                             std::pow(2.0, params.time_grid_points - 1.0) *
                             2.0;
      for (double l : want.lifetimes) {
        if (l == params.max_time) {
          ++survivors;
        } else if (l == t_first) {
          ++dead_on_arrival;
        } else {
          ++crossings;
        }
      }
      int evaluated_serial = -1;
      for (int n_threads : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads);
        const common::ThreadBudget budget(n_threads);
        const variation::LifetimeResult got =
            variation::lifetime_distribution(an, policy, params);
        EXPECT_EQ(got.lifetimes, want.lifetimes);
        EXPECT_EQ(got.max_time, want.max_time);
        EXPECT_GE(got.grid_points_evaluated, 1);
        EXPECT_LE(got.grid_points_evaluated, params.time_grid_points);
        if (evaluated_serial < 0) evaluated_serial = got.grid_points_evaluated;
        EXPECT_EQ(got.grid_points_evaluated, evaluated_serial);
      }
    }
  }
  EXPECT_GT(survivors, 0);
  EXPECT_GT(crossings, 0);
  EXPECT_GT(dead_on_arrival, 0);
}

TEST(DifferentialTest, MonteCarloLayersMatchReference) {
  // The Fig. 12 distributions and gate criticality draw every die through
  // MonteCarloAging's one sampler and time it from the analyzer's fresh
  // delays; the oracles are the loops each layer used to carry, with the
  // sampling and the field-factor scaling inline.  Lifetime, the third
  // user, is LazyLifetimeGridMatchesEagerReference's.
  const tech::Library lib;
  const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
  const double horizon = 3.0e8;
  for (const char* spec : {"c432", "dag:16x300@5", "mult:8"}) {
    SCOPED_TRACE(spec);
    const netlist::Netlist nl = analysis::load_netlist_spec(spec, false);
    const aging::AgingAnalyzer an(nl, lib, fast_conditions());
    const variation::VariationParams vp{.sigma_vth = 0.015, .samples = 40,
                                        .seed = 11};
    variation::DelayDistribution want_fresh;
    variation::DelayDistribution want_aged;
    variation::CriticalityResult want_crit[2];
    {
      const common::ThreadBudget serial(1);
      want_fresh = testsupport::reference_delay_distribution(an, vp);
      want_aged = testsupport::reference_delay_distribution(
          an, vp, an.gate_dvth(policy, horizon));
      for (bool aged : {false, true}) {
        want_crit[aged] = testsupport::reference_gate_criticality(
            an, {.samples = 40, .aged = aged, .total_time = horizon});
      }
    }
    // The comparisons must exercise the aging and the path ranking.
    EXPECT_NE(want_aged.delays, want_fresh.delays);
    EXPECT_GT(want_crit[true].distinct_paths, 0);
    for (int n_threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads);
      const common::ThreadBudget budget(n_threads);
      const variation::MonteCarloAging mc(an, vp);
      EXPECT_EQ(mc.fresh_distribution().delays, want_fresh.delays);
      EXPECT_EQ(mc.aged_distribution(policy, horizon).delays,
                want_aged.delays);
      for (bool aged : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "aged=" << aged);
        const variation::CriticalityResult got = variation::gate_criticality(
            an, {.samples = 40, .aged = aged, .total_time = horizon});
        EXPECT_EQ(got.probability, want_crit[aged].probability);
        EXPECT_EQ(got.distinct_paths, want_crit[aged].distinct_paths);
      }
    }
  }
}

TEST(DifferentialTest, IncOnOneAnalyzerMatchesPerTrialRebuild) {
  // Each trial used to build its own analyzer and stress set; it is now a
  // vector select on the one analyzer plus two STA passes over its scaled
  // delays, in the same multiplication order for both delay laws.
  const tech::Library lib;
  for (const char* name : {"c432", "c880"}) {
    const netlist::Netlist nl = netlist::iscas85_like(name);
    for (bool taylor : {true, false}) {
      for (double t_standby : {330.0, 400.0}) {
        aging::AgingConditions cond = fast_conditions();
        cond.schedule =
            nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, t_standby);
        cond.taylor_delay = taylor;
        const aging::AgingAnalyzer an(nl, lib, cond);
        for (double penalty : {0.08, 0.3}) {
          SCOPED_TRACE(::testing::Message()
                       << name << " taylor=" << taylor << " T_standby="
                       << t_standby << " penalty=" << penalty);
          const opt::IncInsertionParams params{
              .max_control_points = 6, .driver_delay_penalty = penalty};
          opt::IncInsertionResult want;
          {
            const common::ThreadBudget serial(1);
            want = testsupport::reference_insert_control_points(nl, lib, cond,
                                                                params);
          }
          EXPECT_FALSE(want.controlled.empty());  // trials must be accepted
          for (int n_threads : {1, 4}) {
            SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads);
            const common::ThreadBudget budget(n_threads);
            const opt::IncInsertionResult got =
                opt::insert_control_points(an, params);
            EXPECT_EQ(got.controlled, want.controlled);
            EXPECT_EQ(got.fresh_before, want.fresh_before);
            EXPECT_EQ(got.fresh_after, want.fresh_after);
            EXPECT_EQ(got.aging_before, want.aging_before);
            EXPECT_EQ(got.aging_after, want.aging_after);
          }
        }
      }
    }
  }
}

TEST(DifferentialTest, DerateTableMatchesPerCellReference) {
  const tech::Library lib;
  for (std::uint64_t seed : {5ULL, 9ULL}) {
    SCOPED_TRACE(::testing::Message() << "dag seed " << seed);
    const netlist::Netlist nl = random_dag(10, 60, seed);
    const aging::AgingAnalyzer an(nl, lib, fast_conditions());
    // Unsorted with a duplicate: order must be preserved, not normalized.
    const std::vector<double> years = {7.0, 1.0, 3.0, 3.0, 10.0};

    const report::DerateTable want =
        testsupport::reference_derate_table(an, years);
    for (int n_threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads);
      const common::ThreadBudget budget(n_threads);
      const report::DerateTable got = report::aging_derate_table(an, years);
      EXPECT_EQ(got.years, want.years);
      EXPECT_EQ(got.policy_names, want.policy_names);
      ASSERT_EQ(got.factors.size(), want.factors.size());
      for (std::size_t p = 0; p < want.factors.size(); ++p) {
        EXPECT_EQ(got.factors[p], want.factors[p]) << "policy " << p;
      }
    }
  }
}

// AgingAnalyzer::analyze is the one aged-delay query and times with the
// arrival-only pass; the oracle walks the critical path back over the aged
// delays of the scalar per-device dVth.  Policies: both bounds, a vector
// with forces and a rotation, each at three horizons and two budgets.
TEST(DifferentialTest, AnalyzeMatchesWalkBackReference) {
  const tech::Library lib;
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::vector<netlist::Netlist> circuits = {
      analysis::load_netlist_spec("c432", false), random_dag(12, 150, 17)};
  int checked = 0;
  for (const netlist::Netlist& nl : circuits) {
    SCOPED_TRACE(nl.name());
    const aging::AgingAnalyzer an(nl, lib, fast_conditions());
    const auto random_vector = [&] {
      std::vector<bool> v(nl.num_inputs());
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = u(rng) < 0.5;
      return v;
    };
    aging::StandbyPolicy forced =
        aging::StandbyPolicy::from_vector(random_vector());
    for (int f = 0; f < 3; ++f) {
      const int gi = static_cast<int>(
          rng() % static_cast<std::uint64_t>(nl.num_gates()));
      forced.forces.emplace_back(nl.gate(gi).output, u(rng) < 0.5);
    }
    const std::vector<aging::StandbyPolicy> policies = {
        aging::StandbyPolicy::all_stressed(),
        aging::StandbyPolicy::all_relaxed(), forced,
        aging::StandbyPolicy::rotating(
            {random_vector(), random_vector(), random_vector()})};
    const double fresh =
        testsupport::reference_analyze(an.sta(), an.fresh_delays()).max_delay;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (double t : {2.0e5, 3.0e7, 3.0e8}) {
        const double aged =
            testsupport::reference_analyze(
                an.sta(), an.aged_gate_delays(testsupport::reference_gate_dvth(
                              an, policies[p], t)))
                .max_delay;
        for (int n_threads : {1, 4}) {
          SCOPED_TRACE(::testing::Message() << "policy=" << p << " t=" << t
                                            << " n_threads=" << n_threads);
          const common::ThreadBudget budget(n_threads);
          const aging::DegradationReport got = an.analyze(policies[p], t);
          EXPECT_EQ(got.fresh_delay, fresh);
          EXPECT_EQ(got.aged_delay, aged);
          EXPECT_EQ(got.percent(), aging::degradation_percent(fresh, aged));
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 4 * 3 * 2);
}

// The with-ST series is degradation_series plus st_drop_percent; the oracle
// is the series' own grid and loop, horizons below one period included.
// The "st" analysis reads the horizon point of the header series and the
// all-stressed percent.
TEST(DifferentialTest, StSeriesMatchesReferenceLoop) {
  const tech::Library lib;
  const netlist::Netlist nl = analysis::load_netlist_spec("c432", false);
  const aging::AgingAnalyzer an(nl, lib, fast_conditions());
  opt::StParams st;
  st.sigma = 0.03;
  for (const opt::StStyle style :
       {opt::StStyle::Footer, opt::StStyle::Header,
        opt::StStyle::FooterAndHeader}) {
    const std::vector<opt::StDegradationPoint> want =
        testsupport::reference_st_series(an, style, st, 1.0, 3.0e8, 9);
    for (int n_threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "style="
                                        << static_cast<int>(style)
                                        << " n_threads=" << n_threads);
      const common::ThreadBudget budget(n_threads);
      const std::vector<opt::StDegradationPoint> got =
          opt::st_circuit_degradation_series(an, style, st, 1.0, 3.0e8, 9);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].time, want[i].time) << "point " << i;
        EXPECT_EQ(got[i].logic_percent, want[i].logic_percent) << "point " << i;
        EXPECT_EQ(got[i].st_percent, want[i].st_percent) << "point " << i;
        EXPECT_EQ(got[i].total_percent, want[i].total_percent)
            << "point " << i;
      }
    }
  }

  for (const char* spec : {"c432", "dag:16x300@5"}) {
    SCOPED_TRACE(spec);
    analysis::Params p;
    p.sp_vectors = 256;
    p.st_sigma = 0.04;
    analysis::ContextPool pool(p);
    analysis::EvalContext ctx = pool.context(spec, analysis::Condition{});
    const analysis::Metrics metrics =
        analysis::AnalysisRegistry::global().at("st").run(ctx, p);
    const auto metric = [&](std::string_view name) {
      for (const auto& [key, value] : metrics) {
        if (key == name) return value.as_number();
      }
      ADD_FAILURE() << "no metric " << name;
      return 0.0;
    };
    const aging::AgingAnalyzer& cell = ctx.aging();
    opt::StParams cell_st;
    cell_st.sigma = p.st_sigma;
    const double horizon = cell.conditions().total_time;
    const opt::StDegradationPoint want =
        testsupport::reference_st_series(cell, opt::StStyle::Header, cell_st,
                                         horizon, horizon * 1.01, 2)
            .front();
    const double fresh =
        testsupport::reference_analyze(cell.sta(), cell.fresh_delays())
            .max_delay;
    const double stressed =
        testsupport::reference_analyze(
            cell.sta(),
            cell.aged_gate_delays(testsupport::reference_gate_dvth(
                cell, aging::StandbyPolicy::all_stressed(), horizon)))
            .max_delay;
    EXPECT_EQ(metric("st_total_pct"), want.total_percent);
    EXPECT_EQ(metric("st_logic_pct"), want.logic_percent);
    EXPECT_EQ(metric("st_drop_pct"), want.st_percent);
    EXPECT_EQ(metric("no_st_pct"), 100.0 * (stressed - fresh) / fresh);
  }
}

// The solver characterizes only the (cell, input state) pairs its gates
// read and sums them per gate in gate order; the reference builds a whole
// LeakageAnalyzer at every iterate. Every field must agree bitwise, on
// ISCAS85 stand-ins and a random DAG, under all-0, all-1 and random standby
// vectors, in the converged, max-iteration and runaway exits.
TEST(DifferentialTest, ElectrothermalSweepMatchesSerialReference) {
  const tech::Library lib;
  const thermal::RcThermalModel model;
  enum class Exit { Converged, MaxIterations, Runaway };
  struct Case {
    const char* name;
    Exit exit;  // the way every power of the case must leave the loop
    std::vector<double> powers;
    thermal::ElectrothermalParams params;
  };
  const std::vector<Case> cases = {
      {"converged", Exit::Converged, {5.0, 60.0, 100.0}, {.replication = 1e5}},
      {"max-iterations", Exit::MaxIterations, {60.0},
       {.replication = 1e5, .tolerance_k = 1e-9, .max_iterations = 2}},
      {"runaway", Exit::Runaway, {130.0}, {.replication = 3e8}}};
  std::mt19937_64 rng(28);
  for (const netlist::Netlist& nl :
       {netlist::iscas85_like("c432"), netlist::iscas85_like("c1908"),
        random_dag(10, 60, 13)}) {
    std::vector<bool> random(nl.num_inputs());
    for (std::size_t i = 0; i < random.size(); ++i) random[i] = rng() & 1u;
    for (const auto& [vector_name, standby] :
         {std::pair{"zeros", std::vector<bool>(nl.num_inputs(), false)},
          std::pair{"ones", std::vector<bool>(nl.num_inputs(), true)},
          std::pair{"random", random}}) {
      for (const Case& c : cases) {
        SCOPED_TRACE(::testing::Message() << nl.name() << " standby "
                                          << vector_name << " " << c.name);
        const std::vector<thermal::OperatingPoint> want =
            testsupport::reference_operating_points(nl, lib, model, standby,
                                                    c.powers, c.params);
        for (const thermal::OperatingPoint& op : want) {
          EXPECT_EQ(op.converged, c.exit == Exit::Converged);
          EXPECT_EQ(op.temperature_k <= c.params.runaway_temp_k,
                    c.exit != Exit::Runaway);
          if (c.exit == Exit::MaxIterations) {
            EXPECT_EQ(op.iterations, c.params.max_iterations);
          }
        }
        for (int n_threads : {1, 4}) {
          SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads);
          const common::ThreadBudget budget(n_threads);
          const std::vector<thermal::OperatingPoint> got =
              thermal::solve_operating_points(nl, lib, model, standby,
                                              c.powers, c.params);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            SCOPED_TRACE(::testing::Message() << "power " << c.powers[i]);
            EXPECT_EQ(got[i].temperature_k, want[i].temperature_k);
            EXPECT_EQ(got[i].leakage_w, want[i].leakage_w);
            EXPECT_EQ(got[i].iterations, want[i].iterations);
            EXPECT_EQ(got[i].converged, want[i].converged);
          }
        }
      }
    }
  }
}

// --- SoA kernel vs scalar device model ------------------------------------

// gate_dvth (PMOS) and worst_per_gate over the NMOS stress set (stress
// contexts + RdKernel) against reference_gate_dvth (a fresh DeviceStress and
// one one-shot scalar delta_vth per device).
TEST(DifferentialTest, SoaKernelGateDvthMatchesScalarAcrossRandomCases) {
  const tech::Library lib;
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  int checked = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const int n_inputs = 6 + 2 * (rep % 5);
    const int n_gates = 30 + 6 * rep;
    const netlist::Netlist nl =
        random_dag(n_inputs, n_gates, 100 + static_cast<std::uint64_t>(rep));

    aging::AgingConditions cond = fast_conditions();
    cond.schedule = nbti::ModeSchedule::from_ras(
        1.0 + 9.0 * u(rng), 9.0 * u(rng), 1000.0, 360.0 + 60.0 * u(rng),
        300.0 + 60.0 * u(rng));
    // Random PI probabilities with pinned 0/1 entries: the per-PMOS duty
    // cycles then span the whole range, including the exact DC (duty 1) and
    // never-stressed (duty 0) lanes the kernel treats specially.
    cond.input_sp.resize(nl.num_inputs());
    for (double& sp : cond.input_sp) {
      const double r = u(rng);
      sp = r < 0.15 ? 0.0 : (r > 0.85 ? 1.0 : u(rng));
    }
    const aging::AgingAnalyzer an(nl, lib, cond);

    const auto random_vector = [&] {
      std::vector<bool> v(nl.num_inputs());
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = u(rng) < 0.5;
      return v;
    };
    const std::vector<bool> standby_vec = random_vector();
    // Control points on two random gate outputs; the forced values
    // propagate downstream through the standby simulation.
    aging::StandbyPolicy forced = aging::StandbyPolicy::from_vector(
        random_vector());
    for (int f = 0; f < 2; ++f) {
      const int gi = static_cast<int>(
          rng() % static_cast<std::uint64_t>(nl.num_gates()));
      forced.forces.emplace_back(nl.gate(gi).output, u(rng) < 0.5);
    }
    aging::StandbyPolicy rotating = aging::StandbyPolicy::rotating(
        {random_vector(), random_vector(), random_vector()});
    rotating.forces = forced.forces;
    const std::vector<aging::StandbyPolicy> policies = {
        aging::StandbyPolicy::all_stressed(),
        aging::StandbyPolicy::all_relaxed(),
        aging::StandbyPolicy::from_vector(standby_vec), forced, rotating};

    // Horizons span t = 0, the exact-recursion head (small cycle counts) and
    // the telescoped tail out to 10^9.5 s.
    std::vector<double> horizons = {0.0};
    for (int h = 0; h < 3; ++h) {
      horizons.push_back(std::pow(10.0, 3.0 + 6.5 * u(rng)));
    }

    for (const tech::Channel channel :
         {tech::Channel::Pmos, tech::Channel::Nmos}) {
      const bool nmos = channel == tech::Channel::Nmos;
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const bool vector =
            policies[p].kind == aging::StandbyPolicy::Kind::Vector;
        // The NMOS set is built per policy, as the PBTI analyses do; a PMOS
        // vector's own build is what its select must reproduce.
        aging::AgingAnalyzer::StressSet built;
        if (nmos || vector) built = an.build_stress(policies[p], channel);
        for (double t : horizons) {
          SCOPED_TRACE(::testing::Message()
                       << "rep=" << rep << " policy=" << p << " t=" << t
                       << (nmos ? " nmos" : " pmos"));
          const std::uint64_t builds = an.stress_build_count();
          const std::vector<double> got =
              nmos ? an.worst_per_gate(built, t)
                   : an.gate_dvth(policies[p], t);
          const std::vector<double> want =
              testsupport::reference_gate_dvth(an, policies[p], t, channel);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t g = 0; g < want.size(); ++g) {
            ASSERT_EQ(got[g], want[g]) << "gate " << g;
          }
          if (vector && !nmos) {
            // The plain and the forced vector select between the bounds
            // built for policies 0 and 1: no build of their own, and
            // bitwise what one would give.
            EXPECT_EQ(an.stress_build_count(), builds);
            const std::vector<double> own = an.worst_per_gate(built, t);
            for (std::size_t g = 0; g < own.size(); ++g) {
              ASSERT_EQ(got[g], own[g]) << "gate " << g;
            }
          }
          ++checked;
        }
      }
    }

    // A wrong-width vector and a bad force net id still throw through the
    // select.
    EXPECT_THROW(an.gate_dvth(aging::StandbyPolicy::from_vector(
                     std::vector<bool>(nl.num_inputs() + 1))),
                 std::invalid_argument);
    aging::StandbyPolicy bad_force =
        aging::StandbyPolicy::from_vector(standby_vec);
    bad_force.forces.emplace_back(nl.num_nodes(), true);
    EXPECT_THROW(an.gate_dvth(bad_force), std::invalid_argument);
  }
  // The acceptance bar: at least 100 randomized kernel-vs-scalar sweeps per
  // channel, every one an exact (bitwise) whole-circuit comparison.
  EXPECT_GE(checked, 200);
}

// DeviceAging::make_contexts (one S_n prefix per distinct duty, the
// recursions interleaved 8 at a time) against reference_stress_context
// (one device, the literal recursion), every field compared bit for bit —
// across batch sizes that end on, before and after a lane boundary, a
// c1908-sized batch, a batch whose duties mostly repeat, and chunked
// parallel calls.
TEST(DifferentialTest, BatchedStressContextsMatchReferenceFieldByField) {
  const tech::Library lib;
  const netlist::Netlist c1908 = netlist::iscas85_like("c1908");
  const sta::StaEngine sta(c1908, lib);
  int c1908_devices = 0;
  for (int gi = 0; gi < c1908.num_gates(); ++gi) {
    c1908_devices +=
        static_cast<int>(lib.cell(sta.gate_cell(gi)).pmos_devices().size());
  }

  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const auto expect_same = [&](const nbti::DeviceAging::StressContext& got,
                               const nbti::DeviceAging::StressContext& want) {
    EXPECT_EQ(got.always_zero, want.always_zero);
    EXPECT_TRUE(same_bits(got.schedule_period, want.schedule_period));
    EXPECT_TRUE(same_bits(got.eq_period, want.eq_period));
    EXPECT_TRUE(same_bits(got.temp_active, want.temp_active));
    EXPECT_TRUE(same_bits(got.ac.duty, want.ac.duty));
    EXPECT_TRUE(same_bits(got.ac.period, want.ac.period));
    EXPECT_TRUE(same_bits(got.prefix.duty, want.prefix.duty));
    EXPECT_TRUE(same_bits(got.prefix.s, want.prefix.s));
    EXPECT_TRUE(same_bits(got.prefix.step, want.prefix.step));
    EXPECT_TRUE(same_bits(got.vgs, want.vgs));
    EXPECT_TRUE(same_bits(got.vth0, want.vth0));
    EXPECT_TRUE(same_bits(got.kv, want.kv));
    EXPECT_TRUE(same_bits(got.period_pow, want.period_pow));
  };

  std::mt19937_64 rng(1908);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const nbti::RdParams rd;
  const nbti::DeviceAging model(rd);
  const nbti::ModeSchedule schedule =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);

  // Edge stresses lead every batch: duty 1 (DC), always zero (never
  // stressed), duty 0 without being always zero (stress time a few
  // denormals, so the duty underflows), and standby-only stress.
  std::vector<nbti::DeviceStress> edges(4);
  edges[0].active_stress_prob = 1.0;
  edges[0].standby = nbti::StandbyMode::Stressed;
  edges[1].active_stress_prob = 0.0;
  edges[1].standby = nbti::StandbyMode::Relaxed;
  edges[2].active_stress_prob = std::numeric_limits<double>::denorm_min();
  edges[2].standby = nbti::StandbyMode::Relaxed;
  edges[3].active_stress_prob = 0.0;
  edges[3].standby = nbti::StandbyMode::Stressed;
  {
    const nbti::DeviceAging::StressContext dc =
        testsupport::reference_stress_context(rd, edges[0], schedule);
    const nbti::DeviceAging::StressContext zero =
        testsupport::reference_stress_context(rd, edges[1], schedule);
    const nbti::DeviceAging::StressContext underflow =
        testsupport::reference_stress_context(rd, edges[2], schedule);
    ASSERT_EQ(dc.ac.duty, 1.0);
    ASSERT_TRUE(zero.always_zero);
    ASSERT_FALSE(underflow.always_zero);
    ASSERT_EQ(underflow.ac.duty, 0.0);
  }

  // The whole batch in one call, as build_stress makes it, and in the
  // uneven chunks of a parallel loop so lanes straddle chunk ends: every
  // context must be the reference one, field by field.
  int checked = 0;
  const auto check_batch =
      [&](const std::vector<nbti::DeviceStress>& stresses) {
        const int n = static_cast<int>(stresses.size());
        std::vector<nbti::DeviceAging::StressContext> whole(n);
        model.make_contexts(stresses, schedule, whole);
        constexpr int kChunk = 13;
        std::vector<nbti::DeviceAging::StressContext> chunked(n);
        common::parallel_for((n + kChunk - 1) / kChunk, [&](int c) {
          const std::size_t lo = static_cast<std::size_t>(c) * kChunk;
          const std::size_t len = std::min<std::size_t>(kChunk, n - lo);
          model.make_contexts(std::span(stresses).subspan(lo, len), schedule,
                              std::span(chunked).subspan(lo, len));
        });
        for (int i = 0; i < n; ++i) {
          SCOPED_TRACE(::testing::Message() << "device " << i);
          const nbti::DeviceAging::StressContext want =
              testsupport::reference_stress_context(rd, stresses[i],
                                                    schedule);
          expect_same(whole[i], want);
          expect_same(chunked[i], want);
          ++checked;
        }
        return whole;
      };

  for (const int threads : {1, 4}) {
    const common::ThreadBudget budget(threads);
    for (const int n : {0, 1, 7, 8, 9, 17, c1908_devices}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " batch=" << n);
      std::vector<nbti::DeviceStress> stresses(n);
      for (int i = 0; i < n; ++i) {
        if (i < static_cast<int>(edges.size())) {
          stresses[i] = edges[i];
          continue;
        }
        nbti::DeviceStress& s = stresses[i];
        const double r = u(rng);
        s.active_stress_prob = r < 0.1 ? 0.0 : (r > 0.9 ? 1.0 : u(rng));
        s.standby = u(rng) < 0.5 ? nbti::StandbyMode::Stressed
                                 : nbti::StandbyMode::Relaxed;
        if (u(rng) < 0.25) s.standby_stress_fraction = u(rng);
        s.vgs = 0.9 + 0.3 * u(rng);
        s.vth0 = 0.18 + 0.08 * u(rng);
      }
      check_batch(stresses);
    }

    // Stress probabilities on the k/1024 grid estimate_signal_stats gives
    // at 1024 vectors, seven in eight of them on its multiples of 1/16 (a
    // circuit's probabilities cluster the same way), and standby fractions
    // of a 4-vector rotation, so most duties repeat (the prefix step
    // computes one prefix per distinct duty), with the edge stresses
    // repeated inside the batch.
    SCOPED_TRACE(::testing::Message() << "threads=" << threads << " grid");
    std::vector<nbti::DeviceStress> grid(c1908_devices);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (i % 61 < edges.size()) {
        grid[i] = edges[i % 61];
        continue;
      }
      nbti::DeviceStress& s = grid[i];
      const std::uint64_t k = rng() % 8 == 0 ? rng() % 1025 : 64 * (rng() % 17);
      s.active_stress_prob = static_cast<double>(k) / 1024.0;
      s.standby = rng() % 2 == 0 ? nbti::StandbyMode::Stressed
                                 : nbti::StandbyMode::Relaxed;
      if (rng() % 4 == 0) {
        s.standby_stress_fraction = static_cast<double>(rng() % 5) / 4.0;
      }
    }
    const std::vector<nbti::DeviceAging::StressContext> got =
        check_batch(grid);
    std::vector<std::uint64_t> duties;
    for (const nbti::DeviceAging::StressContext& ctx : got) {
      duties.push_back(std::bit_cast<std::uint64_t>(ctx.ac.duty));
    }
    std::sort(duties.begin(), duties.end());
    const auto distinct = static_cast<std::size_t>(
        std::unique(duties.begin(), duties.end()) - duties.begin());
    EXPECT_LT(4 * distinct, grid.size()) << distinct << " distinct duties";
  }
  EXPECT_GE(checked, 4 * c1908_devices);

  std::vector<nbti::DeviceAging::StressContext> short_out(1);
  EXPECT_THROW(model.make_contexts(edges, schedule, short_out),
               std::invalid_argument);
}

TEST(DifferentialTest, RdKernelMatchesScalarDeviceModelAcrossRandomContexts) {
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  int checked = 0;
  for (int rep = 0; rep < 6; ++rep) {
    const nbti::ModeSchedule schedule = nbti::ModeSchedule::from_ras(
        1.0 + 4.0 * u(rng), 9.0 * u(rng), 500.0 + 1000.0 * u(rng),
        360.0 + 60.0 * u(rng), 300.0 + 60.0 * u(rng));
    const nbti::DeviceAging model;

    std::vector<nbti::DeviceStress> stresses;
    // Handcrafted edge lanes first: full DC stress (duty 1), never stressed
    // (duty 0 / always_zero), and standby-only stress.
    nbti::DeviceStress dc;
    dc.active_stress_prob = 1.0;
    dc.standby = nbti::StandbyMode::Stressed;
    stresses.push_back(dc);
    nbti::DeviceStress off;
    off.active_stress_prob = 0.0;
    off.standby = nbti::StandbyMode::Relaxed;
    stresses.push_back(off);
    nbti::DeviceStress standby_only;
    standby_only.active_stress_prob = 0.0;
    standby_only.standby = nbti::StandbyMode::Stressed;
    stresses.push_back(standby_only);
    for (int d = 0; d < 37; ++d) {
      nbti::DeviceStress s;
      const double r = u(rng);
      s.active_stress_prob = r < 0.1 ? 0.0 : (r > 0.9 ? 1.0 : u(rng));
      s.standby = u(rng) < 0.5 ? nbti::StandbyMode::Stressed
                               : nbti::StandbyMode::Relaxed;
      if (u(rng) < 0.25) s.standby_stress_fraction = u(rng);
      s.vgs = 0.9 + 0.3 * u(rng);
      s.vth0 = 0.18 + 0.08 * u(rng);
      stresses.push_back(s);
    }
    std::vector<nbti::DeviceAging::StressContext> ctxs(stresses.size());
    model.make_contexts(stresses, schedule, ctxs);
    const nbti::RdKernel kernel(model, ctxs);
    const int n = static_cast<int>(ctxs.size());
    ASSERT_EQ(kernel.num_devices(), n);

    std::vector<double> out(ctxs.size());
    std::vector<double> scratch(ctxs.size());
    for (double t : {0.0, 3.0e3, 8.5e5, 4.0e7, 1.9e9}) {
      SCOPED_TRACE(::testing::Message() << "rep=" << rep << " t=" << t);
      kernel.delta_vth(t, 0, n, out, scratch);
      for (std::size_t i = 0; i < ctxs.size(); ++i) {
        ASSERT_EQ(out[i], model.delta_vth(ctxs[i], t)) << "device " << i;
        ++checked;
      }
    }
    // A device sub-range addresses the same slots and leaves the rest alone.
    std::vector<double> part(ctxs.size(), -1.0);
    kernel.delta_vth(1.3e8, 7, 17, part, scratch);
    for (int i = 0; i < n; ++i) {
      if (i >= 7 && i < 17) {
        ASSERT_EQ(part[i], model.delta_vth(ctxs[i], 1.3e8)) << "device " << i;
      } else {
        ASSERT_EQ(part[i], -1.0) << "device " << i;
      }
    }
  }
  EXPECT_GE(checked, 100);
}

// One stack the library's leakage characterization solves: the series
// network of a stage whose output sits at the far rail.
struct LibraryStack {
  const tech::DeviceParams* params;
  std::vector<tech::StackDevice> devices;
};

// The series stacks Library::cell_leakage solves for (cell, bits): the PMOS
// pull-up of a NOR stage whose output is 0, the NMOS pull-down of an
// INV/NAND stage whose output is 1.
std::vector<LibraryStack> library_stacks(const tech::Library& lib,
                                         tech::CellId id, std::uint32_t bits,
                                         double vth_offset) {
  const tech::Cell& cell = lib.cell(id);
  const std::vector<bool> signals = cell.signal_values(bits);
  std::vector<LibraryStack> stacks;
  for (std::size_t s = 0; s < cell.stages().size(); ++s) {
    const tech::Stage& st = cell.stages()[s];
    const bool out = signals[cell.num_pins() + s];
    const bool nor = st.kind == tech::StageKind::Nor;
    if (nor == out) continue;  // that stage's leaking network is parallel
    LibraryStack stack{nor ? &lib.params().pmos : &lib.params().nmos, {}};
    for (int in : st.inputs) {
      stack.devices.push_back({nor ? st.pmos_width : st.nmos_width,
                               nor ? !signals[in] : signals[in], vth_offset});
    }
    stacks.push_back(std::move(stack));
  }
  return stacks;
}

void expect_stack_matches_reference(const tech::DeviceParams& params,
                                    const std::vector<tech::StackDevice>& devs,
                                    double vout, double temp_k) {
  const double tol = tech::kStackSolveRelTolerance;
  const tech::StackSolution got =
      tech::solve_stack(params, devs, vout, vout, temp_k);
  const tech::StackSolution want =
      testsupport::reference_solve_stack(params, devs, vout, vout, temp_k);
  EXPECT_NEAR(got.current, want.current, tol * want.current);
  ASSERT_EQ(got.node_voltages.size(), want.node_voltages.size());
  for (std::size_t k = 0; k < want.node_voltages.size(); ++k) {
    EXPECT_NEAR(got.node_voltages[k], want.node_voltages[k],
                tol * want.node_voltages[k])
        << "node " << k;
  }
}

TEST(DifferentialTest, StackSolverMatchesNestedBisection) {
  // Every stack the library characterizes, over the standby/active
  // temperature range and the dual-Vth / aging offsets.
  const tech::Library lib;
  const double vdd = lib.params().vdd;
  for (double temp : {250.0, 300.0, 330.0, 400.0, 450.0, 600.0}) {
    for (double offset : {-0.05, 0.0, 0.05, 0.1}) {
      for (tech::CellId id = 0; id < lib.num_cells(); ++id) {
        const std::uint32_t vectors = 1u << lib.cell(id).num_pins();
        for (std::uint32_t bits = 0; bits < vectors; ++bits) {
          SCOPED_TRACE(::testing::Message()
                       << lib.cell(id).name() << " bits=" << bits
                       << " T=" << temp << " offset=" << offset);
          for (const LibraryStack& st :
               library_stacks(lib, id, bits, offset)) {
            expect_stack_matches_reference(*st.params, st.devices, vdd, temp);
          }
        }
      }
    }
  }

  // Random stacks: depth 1-4, mixed channels, widths, ON/OFF patterns and
  // per-device aging shifts, at random temperatures and output voltages.
  const tech::DeviceParams channels[] = {
      tech::default_device(tech::Channel::Nmos),
      tech::default_device(tech::Channel::Pmos)};
  for (std::uint64_t c = 0; c < 200; ++c) {
    std::mt19937_64 rng(common::stream_seed(2026, c));
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const tech::DeviceParams& params = channels[rng() % 2];
    std::vector<tech::StackDevice> devs(1 + rng() % 4);
    for (tech::StackDevice& d : devs) {
      d.width = 120e-9 + 1.08e-6 * u(rng);
      d.gate_on = u(rng) < 0.3;
      d.delta_vth = -0.05 + 0.15 * u(rng);
    }
    const double temp = 250.0 + 350.0 * u(rng);
    const double vout = 0.5 + 0.7 * u(rng);
    SCOPED_TRACE(::testing::Message() << "case " << c << " depth "
                                      << devs.size() << " T=" << temp);
    expect_stack_matches_reference(params, devs, vout, temp);
  }
}


// JSON numbers: std::to_chars/from_chars in common/json against the
// snprintf/strtod oracles. Every double must print the oracle's bytes, and
// those bytes, like every edge token, must read back bitwise as strtod
// reads them.
TEST(DifferentialTest, JsonNumbersMatchSnprintfAndStrtod) {
  int failures = 0;
  const auto fail_once = [&](const std::string& what) {
    if (++failures <= 5) ADD_FAILURE() << what;
  };
  const auto read_matches = [&](std::string_view token) {
    const double got = common::json::parse(token).as_number();
    const double want = testsupport::reference_parse_number(token);
    if (std::bit_cast<std::uint64_t>(got) !=
        std::bit_cast<std::uint64_t>(want)) {
      fail_once("read " + std::string(token) + " as " +
                std::to_string(got) + ", strtod " + std::to_string(want));
    }
  };
  const auto check = [&](double d) {
    const std::string text = common::json::format_number(d);
    const std::string want = testsupport::reference_format_number(d);
    if (text != want) {
      fail_once("bits " + std::to_string(std::bit_cast<std::uint64_t>(d)) +
                " print " + text + ", snprintf " + want);
    }
    if (std::isfinite(d)) read_matches(text);
  };

  // Seeded bit patterns over every sign, exponent and mantissa.
  std::uint64_t state = 20261018;
  for (int i = 0; i < 1'000'000; ++i) {
    state = common::splitmix64(state);
    check(std::bit_cast<double>(state));
  }
  // Subnormals, zeros, and the extremes of the range.
  for (int i = 0; i < 20'000; ++i) {
    state = common::splitmix64(state);
    const std::uint64_t mantissa = state & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t sign = state & (std::uint64_t{1} << 63);
    check(std::bit_cast<double>(mantissa | sign));
  }
  for (double d : {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    check(d);
    check(-d);
    check(std::nextafter(d, 0.0));
  }
  // Integers around 2^53 (where the integral branch ends) and 2^63 (where
  // a long long cast stops being defined).
  for (double base : {0x1p53, 0x1p63, 0x1p64}) {
    for (int k = -2000; k <= 2000; ++k) {
      for (double step : {1.0, 0x1p11}) {
        check(base + k * step);
        check(-(base + k * step));
      }
    }
  }
  // Powers of two, and decimal fractions that print in 15 digits.
  for (int e = -1074; e <= 1023; ++e) {
    check(std::ldexp(1.0, e));
    check(-std::ldexp(1.0, e));
  }
  // Powers of ten with both neighbours, and their multiples, where the
  // shortest form is short and precision 15 must already read back.
  for (int e = -323; e <= 308; ++e) {
    const double p = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    for (double d : {p, std::nextafter(p, 0.0),
                     std::nextafter(p, std::numeric_limits<double>::infinity())}) {
      check(d);
      check(-d);
    }
    for (int m = 2; m <= 9; ++m) check(m * p);
  }
  // A 0.001 grid, the values campaign grids and rows are made of.
  for (int k = -20'000; k <= 20'000; ++k) check(k * 0.001);
  for (int i = 0; i < 50'000; ++i) {
    state = common::splitmix64(state);
    check(static_cast<double>(state % 1'000'000'007) /
          std::pow(10.0, static_cast<double>(state >> 60)));
  }

  // Tokens past the range, at its edges, and longer than any double.
  for (const char* token :
       {"1e999", "-1e999", "1e-400", "-1e-400", "4.9e-324", "-0",
        "2.2250738585072011e-308", "2.2250738585072014e-308",
        "2.4703282292062327e-324", "2.4703282292062328e-324",
        "1.7976931348623157e308", "1.7976931348623158e308",
        "1.7976931348623159e308", "0e999999999", "-0.0e-999",
        "9007199254740993", "18446744073709551616", "1e-320",
        "123456789012345678901234567890.123456789e-10"}) {
    read_matches(token);
  }
  read_matches("1" + std::string(400, '0'));
  read_matches("0." + std::string(400, '0') + "1");
  // Seeded decimal tokens: 1-20 digits, an optional fraction, exponents
  // across and past the range.
  std::mt19937_64 rng(common::stream_seed(2026, 10));
  for (int i = 0; i < 200'000; ++i) {
    std::string token = rng() % 2 ? "-" : "";
    const auto digits = [&](std::size_t n) {
      for (std::size_t k = 0; k < n; ++k) {
        token += static_cast<char>('0' + rng() % 10);
      }
    };
    digits(1 + rng() % 20);
    if (rng() % 2) {
      token += '.';
      digits(1 + rng() % 20);
    }
    token += 'e' + std::to_string(static_cast<int>(rng() % 700) - 350);
    read_matches(token);
  }
  EXPECT_EQ(failures, 0);
}

// Task keys, fingerprints and derate/failure metric names are fmt_g text.
// Every value whose "%g" form reads back keeps those bytes, so the hashes
// of stored rows stay valid; every other value prints in full.
TEST(DifferentialTest, FmtGMatchesPercentGWhereItRoundTrips) {
  int failures = 0;
  const auto check = [&](double d) {
    const std::string got = analysis::fmt_g(d);
    const std::string want = testsupport::reference_fmt_g(d);
    if (got != want && ++failures <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(d) << " print "
                    << got << ", reference " << want;
    }
  };
  std::uint64_t state = 20261018;
  for (int i = 0; i < 100'000; ++i) {
    state = common::splitmix64(state);
    check(std::bit_cast<double>(state));
  }
  // Knob-like values: up to 8 significant digits, times 1e-40 to 1e23.
  for (int i = 0; i < 100'000; ++i) {
    state = common::splitmix64(state);
    check(static_cast<double>(state % 100'000'000) *
          std::pow(10.0, static_cast<double>(state >> 58) - 40.0));
  }
  for (double d : {0.0, -0.0, 330.0, 399.9996, 0.05, 1e6, 1.0000001,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    check(d);
    check(-d);
  }
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace nbtisim
