/// \file bench_perf_micro.cpp
/// \brief google-benchmark throughput micro-benchmarks for the engine:
///        device-model evaluation, stack solving, logic simulation, STA,
///        full aging analysis and MLV search — plus self-timed
///        serial-vs-parallel sections that write BENCH_aging.json,
///        BENCH_variation.json, BENCH_sizing.json, BENCH_campaign.json,
///        BENCH_pool.json, BENCH_multi.json, BENCH_registry.json and
///        BENCH_query.json (see EXPERIMENTS.md "Performance") before the
///        google-benchmark suite runs.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>

#include "aging/failure.h"
#include "aging/multi.h"
#include "analysis/analysis.h"
#include "campaign/engine.h"
#include "campaign/index.h"
#include "campaign/store.h"
#include "common/json.h"
#include "common/pool.h"
#include "query/query.h"
#include "sta/slew_sta.h"
#include "support/reference.h"
#include "netlist/generators.h"
#include "opt/ivc.h"
#include "opt/mlv.h"
#include "opt/sizing.h"
#include "report/derate.h"
#include "tech/stack.h"
#include "tech/units.h"
#include "thermal/electrothermal.h"
#include "variation/criticality.h"
#include "variation/lifetime.h"
#include "variation/variation.h"

using namespace nbtisim;

namespace {

void BM_DeviceDeltaVth(benchmark::State& state) {
  const nbti::DeviceAging model;
  const nbti::DeviceStress stress{0.5, nbti::StandbyMode::Stressed, 1.0, 0.22};
  const auto sched = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  double t = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.delta_vth(stress, sched, t));
    t = t < 3e8 ? t * 1.01 : 1e6;
  }
}
BENCHMARK(BM_DeviceDeltaVth);

void BM_StackSolve(benchmark::State& state) {
  const tech::DeviceParams nmos = tech::default_device(tech::Channel::Nmos);
  const std::vector<tech::StackDevice> stack(
      state.range(0), tech::StackDevice{360e-9, false, 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tech::solve_stack(nmos, stack, 1.0, 1.0, 400.0));
  }
}
BENCHMARK(BM_StackSolve)->Arg(2)->Arg(3)->Arg(4);

void BM_LeakageTableBuild(benchmark::State& state) {
  const tech::Library lib;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tech::LeakageTable(lib, 400.0));
  }
}
BENCHMARK(BM_LeakageTableBuild);

void BM_LogicSimWords(benchmark::State& state) {
  const netlist::Netlist nl = netlist::iscas85_like("c3540");
  const sim::Simulator simulator(nl);
  std::mt19937_64 rng(1);
  std::vector<std::uint64_t> words(nl.num_inputs());
  for (auto& w : words) w = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.evaluate_words(words));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates() * 64);
}
BENCHMARK(BM_LogicSimWords);

void BM_StaAnalyze(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c5315");
  const sta::StaEngine sta(nl, lib);
  const std::vector<double> delays = sta.gate_delays(400.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta.analyze(delays));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK(BM_StaAnalyze);

void BM_FullAgingAnalysis(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c880");
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer analyzer(nl, lib, cond);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.analyze(aging::StandbyPolicy::all_stressed()));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK(BM_FullAgingAnalysis);

void BM_SlewStaAnalyze(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c1908");
  const sta::SlewStaEngine slew(nl, lib);
  for (auto _ : state) {
    benchmark::DoNotOptimize(slew.analyze(400.0));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK(BM_SlewStaAnalyze);

void BM_MultiMechanism(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  aging::AgingConditions cond;
  cond.sp_vectors = 512;
  const aging::AgingAnalyzer analyzer(nl, lib, cond);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aging::analyze_multi_mechanism(
        analyzer, aging::StandbyPolicy::all_stressed()));
  }
}
BENCHMARK(BM_MultiMechanism);

void BM_MlvSearch(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  const leakage::LeakageAnalyzer an(nl, lib, 330.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::find_mlv_set(an, {.population = 32, .max_rounds = 6}));
  }
}
BENCHMARK(BM_MlvSearch);

void BM_EstimateSignalStats(benchmark::State& state) {
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  const std::vector<double> sp(nl.num_inputs(), 0.5);
  const common::ThreadBudget budget(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::estimate_signal_stats(nl, sp, 4096, 7));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates() * 4096);
}
BENCHMARK(BM_EstimateSignalStats)->Arg(1)->Arg(8);

void BM_GateDvthCached(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const common::ThreadBudget budget(static_cast<int>(state.range(0)));
  const aging::AgingAnalyzer analyzer(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();
  benchmark::DoNotOptimize(analyzer.gate_dvth(policy));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.gate_dvth(policy));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK(BM_GateDvthCached)->Arg(1)->Arg(8);

void BM_DegradationSeries(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const common::ThreadBudget budget(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();  // a fresh analyzer: the series builds its stress
    const aging::AgingAnalyzer analyzer(nl, lib, cond);
    state.ResumeTiming();
    benchmark::DoNotOptimize(analyzer.degradation_series(
        aging::StandbyPolicy::all_stressed(), 1e6, 3e8, 64));
  }
}
BENCHMARK(BM_DegradationSeries)->Arg(1)->Arg(8);

// ---------------------------------------------------------------------------
// Self-timed serial-vs-parallel section -> BENCH_aging.json.
//
// "serial / before" legs reproduce the seed implementation's cost model:
// one thread, and (for the aging pipeline) the per-gate stress descriptors
// rebuilt at every time point.  "parallel / after" legs use the cached
// descriptors and 8 worker threads.  Every section sets its legs' widths
// with common::ThreadBudget scopes (time_ms_at).  Outputs are asserted
// bit-identical.

using Clock = std::chrono::steady_clock;

template <typename Fn>
double time_ms(Fn&& fn, int repeats = 3) {
  double best = 1e300;  // best-of-N: robust against scheduler noise
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// time_ms under a common::ThreadBudget of \p threads: every parallel loop
/// \p fn reaches runs on at most that many threads.
template <typename Fn>
double time_ms_at(int threads, Fn&& fn, int repeats = 3) {
  const common::ThreadBudget budget(threads);
  return time_ms(std::forward<Fn>(fn), repeats);
}

struct AgingCase {
  std::string name;
  std::string netlist;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
};

AgingCase case_signal_stats(const netlist::Netlist& nl) {
  const std::vector<double> sp(nl.num_inputs(), 0.5);
  AgingCase c{"estimate_signal_stats_4096", nl.name(), 0, 0, false};
  sim::SignalStats serial, parallel;
  c.serial_ms = time_ms_at(
      1, [&] { serial = sim::estimate_signal_stats(nl, sp, 4096, 7); });
  c.parallel_ms = time_ms_at(
      8, [&] { parallel = sim::estimate_signal_stats(nl, sp, 4096, 7); });
  c.identical = serial.probability == parallel.probability &&
                serial.activity == parallel.activity;
  return c;
}

AgingCase case_gate_dvth(const netlist::Netlist& nl, const tech::Library& lib) {
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();

  // gate_dvth's cache-miss path, timed without touching the cache: the
  // PMOS stress build plus one kernel sweep at the configured horizon.
  AgingCase c{"gate_dvth_rebuild", nl.name(), 0, 0, false};
  auto cold_gate_dvth = [&] {
    return an.worst_per_gate(an.build_stress(policy, tech::Channel::Pmos),
                             cond.total_time);
  };
  std::vector<double> serial, parallel;
  c.serial_ms = time_ms_at(1, [&] { serial = cold_gate_dvth(); });
  c.parallel_ms = time_ms_at(8, [&] { parallel = cold_gate_dvth(); });
  c.identical = serial == parallel && serial == an.gate_dvth(policy);
  return c;
}

AgingCase case_dvth_eval_kernel(const netlist::Netlist& nl,
                                const tech::Library& lib) {
  // The dVth-evaluation portion of a 64-point degradation series — the part
  // the SoA kernel layout changes (the STA half of the series is untouched):
  // the scalar oracle (tests/support/reference.h reference_gate_dvth: a
  // fresh DeviceStress and one one-shot delta_vth per device and horizon)
  // vs gate_dvth's SoA kernel on warm stress descriptors, both on one
  // thread.  Horizons start at 2e6 s so the telescoped tail (not the
  // exact-recursion head both paths share) dominates.
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();
  constexpr int kPoints = 64;
  std::vector<double> horizons(kPoints);
  for (int i = 0; i < kPoints; ++i) {
    horizons[i] = 2e6 * std::pow(150.0, i / static_cast<double>(kPoints - 1));
  }
  (void)an.gate_dvth(policy, horizons[0]);  // warm the descriptors

  AgingCase c{"dvth_eval_64pt_kernel", nl.name(), 0, 0, false};
  std::vector<std::vector<double>> scalar_out(kPoints), soa_out(kPoints);
  c.serial_ms = time_ms_at(
      1,
      [&] {
        for (int i = 0; i < kPoints; ++i) {
          scalar_out[i] =
              testsupport::reference_gate_dvth(an, policy, horizons[i]);
        }
      },
      1);
  c.parallel_ms = time_ms_at(1, [&] {
    for (int i = 0; i < kPoints; ++i) {
      soa_out[i] = an.gate_dvth(policy, horizons[i]);
    }
  });
  c.identical = scalar_out == soa_out;
  return c;
}

AgingCase case_degradation_series(const netlist::Netlist& nl,
                                  const tech::Library& lib) {
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();
  constexpr int kPoints = 64;
  const double t_min = 1e6, t_max = 3e8;

  AgingCase c{"degradation_series_64pt", nl.name(), 0, 0, false};
  // Seed cost model: descriptors rebuilt from scratch at every point — an
  // uncached analyze(): build_stress and worst_per_gate never touch the
  // analyzer's cache.
  std::vector<std::pair<double, double>> serial(kPoints), parallel;
  c.serial_ms = time_ms_at(
      1,
      [&] {
        const double log_step = std::log(t_max / t_min) / (kPoints - 1);
        for (int i = 0; i < kPoints; ++i) {
          const double t = t_min * std::exp(log_step * i);
          aging::DegradationReport rep;
          rep.gate_dvth = an.worst_per_gate(
              an.build_stress(policy, tech::Channel::Pmos), t);
          rep.fresh_delay = an.fresh_critical_delay();
          rep.aged_delay =
              an.sta().analyze(an.aged_gate_delays(rep.gate_dvth)).max_delay;
          serial[i] = {t, rep.percent()};
        }
      },
      1);
  // A fresh analyzer, built outside the timed region: the series pays its
  // one cached build.
  const aging::AgingAnalyzer cold(nl, lib, cond);
  c.parallel_ms = time_ms_at(
      8,
      [&] {
        parallel = cold.degradation_series(policy, t_min, t_max, kPoints);
      },
      1);
  c.identical = serial == parallel;
  return c;
}

void write_bench_aging_json(const char* path) {
  const tech::Library lib;
  const netlist::Netlist c432 = netlist::iscas85_like("c432");
  const netlist::Netlist rand_dag = netlist::make_random_dag(
      "rand1500", {.n_inputs = 40, .n_outputs = 20, .n_gates = 1500,
                   .seed = 3, .locality = 0.75});

  std::vector<AgingCase> cases;
  for (const netlist::Netlist* nl : {&c432, &rand_dag}) {
    cases.push_back(case_signal_stats(*nl));
    cases.push_back(case_gate_dvth(*nl, lib));
    cases.push_back(case_degradation_series(*nl, lib));
  }
  // Kernel-layout section: scalar-vs-SoA legs rather than thread counts
  // (see EXPERIMENTS.md "SoA kernel and interpolated tables").
  const AgingCase kernel = case_dvth_eval_kernel(rand_dag, lib);

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-aging-v2\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const AgingCase& c = cases[i];
    const double speedup =
        c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
        << "\", \"serial_ms\": " << c.serial_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << speedup
        << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"kernel_cases\": [\n"
      << "    {\"name\": \"" << kernel.name << "\", \"netlist\": \""
      << kernel.netlist << "\", \"scalar_ms\": " << kernel.serial_ms
      << ", \"soa_ms\": " << kernel.parallel_ms << ", \"speedup\": "
      << (kernel.parallel_ms > 0.0 ? kernel.serial_ms / kernel.parallel_ms
                                   : 0.0)
      << ", \"bit_identical\": " << (kernel.identical ? "true" : "false")
      << "}\n"
      << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << " ("
            << std::thread::hardware_concurrency()
            << " hardware threads)\n";
  for (const AgingCase& c : cases) {
    std::cout << "  " << c.name << " [" << c.netlist
              << "]: serial " << c.serial_ms << " ms, parallel "
              << c.parallel_ms << " ms, speedup "
              << (c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0)
              << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
  }
  std::cout << "  " << kernel.name << " [" << kernel.netlist << "]: scalar "
            << kernel.serial_ms << " ms, soa " << kernel.parallel_ms
            << " ms, speedup "
            << (kernel.parallel_ms > 0.0
                    ? kernel.serial_ms / kernel.parallel_ms
                    : 0.0)
            << (kernel.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
}

// ---------------------------------------------------------------------------
// Self-timed serial-vs-parallel section -> BENCH_variation.json.
//
// The Monte-Carlo and vector-search layers fan their independent samples /
// candidates over common::parallel_for with the same bit-identical contract
// as the aging pipeline: serial (1 thread) and parallel (8 threads) runs are
// asserted equal before the speedup is reported.

AgingCase case_mc_fresh(const aging::AgingAnalyzer& an) {
  AgingCase c{"mc_fresh_distribution_300", an.sta().netlist().name(), 0, 0,
              false};
  const variation::MonteCarloAging mc(an,
                                      {.sigma_vth = 0.012, .samples = 300});
  variation::DelayDistribution serial, parallel;
  c.serial_ms = time_ms_at(1, [&] { serial = mc.fresh_distribution(); });
  c.parallel_ms = time_ms_at(8, [&] { parallel = mc.fresh_distribution(); });
  c.identical = serial.delays == parallel.delays;
  return c;
}

AgingCase case_mc_aged(const aging::AgingAnalyzer& an) {
  AgingCase c{"mc_aged_distribution_300", an.sta().netlist().name(), 0, 0,
              false};
  const auto policy = aging::StandbyPolicy::all_stressed();
  constexpr double kThreeYears = 3.0 * 3.1536e7;
  const variation::MonteCarloAging mc(an,
                                      {.sigma_vth = 0.012, .samples = 300});
  variation::DelayDistribution serial, parallel;
  c.serial_ms = time_ms_at(
      1, [&] { serial = mc.aged_distribution(policy, kThreeYears); });
  c.parallel_ms = time_ms_at(
      8, [&] { parallel = mc.aged_distribution(policy, kThreeYears); });
  c.identical = serial.delays == parallel.delays;
  return c;
}

AgingCase case_lifetime(const aging::AgingAnalyzer& an) {
  AgingCase c{"lifetime_distribution_100", an.sta().netlist().name(), 0, 0,
              false};
  const auto policy = aging::StandbyPolicy::all_stressed();
  variation::LifetimeParams p;
  p.samples = 100;
  variation::LifetimeResult serial, parallel;
  c.serial_ms = time_ms_at(
      1, [&] { serial = variation::lifetime_distribution(an, policy, p); });
  c.parallel_ms = time_ms_at(
      8, [&] { parallel = variation::lifetime_distribution(an, policy, p); });
  c.identical = serial.lifetimes == parallel.lifetimes;
  return c;
}

AgingCase case_criticality(const aging::AgingAnalyzer& an) {
  AgingCase c{"gate_criticality_300", an.sta().netlist().name(), 0, 0, false};
  variation::CriticalityParams p;
  p.samples = 300;
  variation::CriticalityResult serial, parallel;
  c.serial_ms =
      time_ms_at(1, [&] { serial = variation::gate_criticality(an, p); });
  c.parallel_ms =
      time_ms_at(8, [&] { parallel = variation::gate_criticality(an, p); });
  c.identical = serial.probability == parallel.probability &&
                serial.distinct_paths == parallel.distinct_paths;
  return c;
}

AgingCase case_evaluate_ivc(const aging::AgingAnalyzer& an,
                            const leakage::LeakageAnalyzer& leak) {
  AgingCase c{"evaluate_ivc_pop32", an.sta().netlist().name(), 0, 0, false};
  opt::MlvSearchParams p;
  p.population = 32;
  p.max_rounds = 8;
  opt::IvcResult serial, parallel;
  c.serial_ms = time_ms_at(
      1, [&] { serial = opt::evaluate_ivc(an, leak, p, 16); }, 1);
  c.parallel_ms = time_ms_at(
      8, [&] { parallel = opt::evaluate_ivc(an, leak, p, 16); }, 1);
  c.identical = serial.best_index == parallel.best_index &&
                serial.random_vector_percent == parallel.random_vector_percent &&
                serial.candidates.size() == parallel.candidates.size();
  for (std::size_t i = 0; c.identical && i < serial.candidates.size(); ++i) {
    c.identical =
        serial.candidates[i].vector == parallel.candidates[i].vector &&
        serial.candidates[i].leakage == parallel.candidates[i].leakage &&
        serial.candidates[i].degradation_percent ==
            parallel.candidates[i].degradation_percent;
  }
  return c;
}

void write_bench_variation_json(const char* path) {
  const tech::Library lib;
  const netlist::Netlist c880 = netlist::iscas85_like("c880");
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(c880, lib, cond);
  const leakage::LeakageAnalyzer leak(c880, lib, 330.0);

  std::vector<AgingCase> cases;
  cases.push_back(case_mc_fresh(an));
  cases.push_back(case_mc_aged(an));
  cases.push_back(case_lifetime(an));
  cases.push_back(case_criticality(an));
  cases.push_back(case_evaluate_ivc(an, leak));

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-variation-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const AgingCase& c = cases[i];
    const double speedup =
        c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
        << "\", \"serial_ms\": " << c.serial_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << speedup
        << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n";
  for (const AgingCase& c : cases) {
    std::cout << "  " << c.name << " [" << c.netlist
              << "]: serial " << c.serial_ms << " ms, parallel "
              << c.parallel_ms << " ms, speedup "
              << (c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0)
              << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
  }
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_sizing.json.
//
// Three legs of the sizing loop: "serial" times the seed cost model, which
// now lives only as the oracle (tests/support/reference.h
// reference_size_for_lifetime: one thread, full delay rebuild + full STA
// per candidate trial), "incremental" is the production loop on one thread
// (patches only the affected delays per trial), "parallel" the same loop
// at 8 threads.  All three are asserted bit-identical — the differential
// suite's contract, re-checked on every bench run.  A fourth case times the
// horizon-batched derate table against the naive per-cell evaluation.

struct SizingCase {
  std::string name;
  std::string netlist;
  double serial_ms = 0.0;
  double incremental_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
};

SizingCase case_sizing(const netlist::Netlist& nl, const tech::Library& lib) {
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();
  const opt::SizingParams p{.spec_margin_percent = 3.0, .size_step = 0.5,
                            .max_moves = 200};

  SizingCase c{"size_for_lifetime_3pct", nl.name(), 0, 0, 0, false};
  opt::SizingResult serial, incremental, parallel;
  c.serial_ms = time_ms_at(1, [&] {
    serial = testsupport::reference_size_for_lifetime(an, policy, p);
  });
  c.incremental_ms = time_ms_at(
      1, [&] { incremental = opt::size_for_lifetime(an, policy, p); });
  c.parallel_ms = time_ms_at(
      8, [&] { parallel = opt::size_for_lifetime(an, policy, p); });
  c.identical = serial.sizes == incremental.sizes &&
                serial.sizes == parallel.sizes &&
                serial.moves == incremental.moves &&
                serial.moves == parallel.moves &&
                serial.aged_after == incremental.aged_after &&
                serial.aged_after == parallel.aged_after;
  return c;
}

SizingCase case_derate(const netlist::Netlist& nl, const tech::Library& lib) {
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(nl, lib, cond);
  const std::vector<double> years = {1.0, 2.0, 3.0, 5.0, 7.0, 10.0};

  SizingCase c{"aging_derate_table_6y", nl.name(), 0, 0, 0, false};
  // Seed cost model: a fresh full analyze() per (policy, year) cell.
  std::vector<std::vector<double>> percell(3);
  c.serial_ms = time_ms([&] {
    const std::vector<aging::StandbyPolicy> policies{
        aging::StandbyPolicy::all_stressed(),
        aging::StandbyPolicy::from_vector(
            std::vector<bool>(nl.num_inputs(), false)),
        aging::StandbyPolicy::all_relaxed()};
    for (std::size_t p = 0; p < policies.size(); ++p) {
      percell[p].clear();
      for (double y : years) {
        const aging::DegradationReport rep =
            an.analyze(policies[p], y * kSecondsPerYear);
        percell[p].push_back(rep.aged_delay / rep.fresh_delay);
      }
    }
  });
  report::DerateTable batched_serial, batched;
  c.incremental_ms = time_ms_at(
      1, [&] { batched_serial = report::aging_derate_table(an, years); });
  c.parallel_ms =
      time_ms_at(8, [&] { batched = report::aging_derate_table(an, years); });
  c.identical = batched.factors == percell &&
                batched_serial.factors == percell;
  return c;
}

void write_bench_sizing_json(const char* path) {
  const tech::Library lib;
  const netlist::Netlist c432 = netlist::iscas85_like("c432");
  const netlist::Netlist rand_dag = netlist::make_random_dag(
      "rand800", {.n_inputs = 32, .n_outputs = 16, .n_gates = 800,
                  .seed = 3, .locality = 0.75});

  std::vector<SizingCase> cases;
  for (const netlist::Netlist* nl : {&c432, &rand_dag}) {
    cases.push_back(case_sizing(*nl, lib));
    cases.push_back(case_derate(*nl, lib));
  }

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-sizing-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SizingCase& c = cases[i];
    const double speedup =
        c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
        << "\", \"serial_ms\": " << c.serial_ms
        << ", \"incremental_ms\": " << c.incremental_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << speedup
        << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n";
  for (const SizingCase& c : cases) {
    std::cout << "  " << c.name << " [" << c.netlist
              << "]: serial " << c.serial_ms << " ms, incremental "
              << c.incremental_ms << " ms, parallel " << c.parallel_ms
              << " ms, speedup "
              << (c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0)
              << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
  }
}

// ---------------------------------------------------------------------------
// Self-timed serial-vs-parallel section -> BENCH_campaign.json.
//
// A 12-task in-memory campaign (3 netlists x 2 conditions x 2 analysis
// kinds) runs end-to-end through the batch scheduler at 1 and 8 threads.
// The JSONL stores are asserted byte-identical before the speedup is
// reported — the campaign-level restatement of the engine contract.

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

campaign::CampaignSpec bench_campaign_spec() {
  campaign::CampaignSpec spec;
  spec.name = "bench";
  spec.netlists = {"c432", "dag:16x300@3", "dag:20x500@5"};
  spec.conditions.resize(2);
  spec.conditions[1].t_standby = 400.0;
  spec.analyses = {"aging", "lifetime"};
  spec.params.sp_vectors = 512;
  spec.params.samples = 60;
  spec.shards = 1;  // this bench byte-compares the two single-file stores
  return spec;
}

void write_bench_campaign_json(const char* path) {
  const std::string serial_store = "BENCH_campaign_serial.jsonl";
  const std::string parallel_store = "BENCH_campaign_parallel.jsonl";
  std::remove(serial_store.c_str());
  std::remove(parallel_store.c_str());

  campaign::CampaignSpec spec = bench_campaign_spec();
  AgingCase c{"campaign_12_tasks", "c432+2xdag", 0, 0, false};
  campaign::RunStats serial_stats, parallel_stats;
  spec.n_threads = 1;
  c.serial_ms = time_ms(
      [&] {
        std::remove(serial_store.c_str());
        serial_stats = campaign::run_campaign(spec, serial_store);
      },
      1);
  spec.n_threads = 8;
  c.parallel_ms = time_ms(
      [&] {
        std::remove(parallel_store.c_str());
        parallel_stats = campaign::run_campaign(spec, parallel_store);
      },
      1);
  c.identical = serial_stats.executed == 12 && parallel_stats.executed == 12 &&
                slurp(serial_store) == slurp(parallel_store);

  const double speedup = c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-campaign-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"tasks\": " << serial_stats.total << ",\n"
      << "  \"cases\": [\n"
      << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
      << "\", \"serial_ms\": " << c.serial_ms
      << ", \"parallel_ms\": " << c.parallel_ms
      << ", \"speedup\": " << speedup
      << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}\n"
      << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n  " << c.name
            << ": serial " << c.serial_ms << " ms, parallel " << c.parallel_ms
            << " ms, speedup " << speedup
            << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_pool.json.
//
// Prices the shared work pool against the spawn-per-call execution it
// replaced. Two cases:
//  - dispatch overhead: many small parallel_for calls (the MC / search /
//    campaign inner-loop shape) through the pool vs. a local reimplementation
//    of the old spawn-k-threads-per-call loop — same atomic hand-out, same
//    body, only the execution vehicle differs;
//  - the 12-task campaign scheduler on the sharded store at 1 vs 8 threads,
//    with every shard file asserted byte-identical. On multicore hardware
//    this is where the pool must finally beat serial (the spawn-based
//    scheduler lost at 0.85x, see BENCH_campaign.json history).

/// The seed implementation's cost model: k fresh threads per call pulling
/// indices off one shared atomic counter.
template <typename Body>
void spawn_parallel_for(int n, int n_threads, Body&& body) {
  const int k = std::min(common::resolve_threads(n_threads), n);
  if (k <= 1) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<int> next{0};
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      body(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(k - 1);
  for (int t = 0; t < k - 1; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
}

void write_bench_pool_json(const char* path) {
  // Case 1: dispatch overhead over many small loops.
  constexpr int kCalls = 2000;
  constexpr int kN = 256;
  std::vector<double> spawn_out(kN), pool_out(kN), serial_out(kN);
  const auto body = [](std::vector<double>& out, int i) {
    out[i] = std::sqrt(static_cast<double>(i) + 1.0) * 1.0000001;
  };
  for (int i = 0; i < kN; ++i) body(serial_out, i);

  const double spawn_ms = time_ms([&] {
    for (int c = 0; c < kCalls; ++c) {
      spawn_parallel_for(kN, 4, [&](int i) { body(spawn_out, i); });
    }
  });
  const double pool_ms = time_ms_at(4, [&] {
    for (int c = 0; c < kCalls; ++c) {
      common::parallel_for(kN, [&](int i) { body(pool_out, i); });
    }
  });
  const bool dispatch_identical =
      spawn_out == serial_out && pool_out == serial_out;

  // Case 2: the campaign scheduler on the 16-shard layout, 1 vs 8 threads.
  const std::string serial_store = "BENCH_pool_serial.jsonl";
  const std::string parallel_store = "BENCH_pool_parallel.jsonl";
  const auto drop_store = [](const std::string& base) {
    std::remove(base.c_str());
    for (int h = 0; h < campaign::ShardedStore::kMaxShards; ++h) {
      std::remove(campaign::ShardedStore::shard_path(base, h).c_str());
    }
  };

  campaign::CampaignSpec spec = bench_campaign_spec();
  spec.shards = 16;
  campaign::RunStats serial_stats, parallel_stats;
  spec.n_threads = 1;
  const double campaign_serial_ms = time_ms(
      [&] {
        drop_store(serial_store);
        serial_stats = campaign::run_campaign(spec, serial_store);
      },
      1);
  spec.n_threads = 8;
  const double campaign_parallel_ms = time_ms(
      [&] {
        drop_store(parallel_store);
        parallel_stats = campaign::run_campaign(spec, parallel_store);
      },
      1);
  bool shards_identical =
      serial_stats.executed == 12 && parallel_stats.executed == 12;
  for (int h = 0; h < campaign::ShardedStore::kMaxShards; ++h) {
    shards_identical =
        shards_identical &&
        slurp(campaign::ShardedStore::shard_path(serial_store, h)) ==
            slurp(campaign::ShardedStore::shard_path(parallel_store, h));
  }

  const double dispatch_speedup = pool_ms > 0.0 ? spawn_ms / pool_ms : 0.0;
  const double campaign_speedup =
      campaign_parallel_ms > 0.0 ? campaign_serial_ms / campaign_parallel_ms
                                 : 0.0;
  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-pool-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"cases\": [\n"
      << "    {\"name\": \"dispatch_2000x256\", \"spawn_ms\": " << spawn_ms
      << ", \"pool_ms\": " << pool_ms
      << ", \"speedup_vs_spawn\": " << dispatch_speedup
      << ", \"bit_identical\": " << (dispatch_identical ? "true" : "false")
      << "},\n"
      << "    {\"name\": \"campaign_sharded_12_tasks\", \"serial_ms\": "
      << campaign_serial_ms << ", \"parallel_ms\": " << campaign_parallel_ms
      << ", \"speedup\": " << campaign_speedup
      << ", \"shards\": " << spec.shards
      << ", \"bit_identical\": " << (shards_identical ? "true" : "false")
      << "}\n"
      << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path
            << "\n  dispatch_2000x256: spawn " << spawn_ms << " ms, pool "
            << pool_ms << " ms, speedup x" << dispatch_speedup
            << (dispatch_identical ? " (bit-identical)" : " (MISMATCH!)")
            << "\n  campaign_sharded_12_tasks: serial " << campaign_serial_ms
            << " ms, 8-thread " << campaign_parallel_ms << " ms, speedup x"
            << campaign_speedup
            << (shards_identical ? " (shards bit-identical)" : " (MISMATCH!)")
            << "\n";
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_multi.json.
//
// The multi-mechanism failure suite and the electrothermal sweep: serial
// (1 thread) vs 8-thread legs of the same per-gate / per-power fan-out,
// asserted bit-identical before the speedup is reported.

bool same_failure_report(const aging::FailureReport& a,
                         const aging::FailureReport& b) {
  if (a.mechanisms.size() != b.mechanisms.size()) return false;
  for (std::size_t i = 0; i < a.mechanisms.size(); ++i) {
    if (a.mechanisms[i].name != b.mechanisms[i].name ||
        a.mechanisms[i].gate_mttf != b.mechanisms[i].gate_mttf ||
        a.mechanisms[i].system_mttf != b.mechanisms[i].system_mttf) {
      return false;
    }
  }
  return a.lambda == b.lambda && a.system_mttf == b.system_mttf &&
         a.failure_curve == b.failure_curve;
}

AgingCase case_failure_suite(const netlist::Netlist& nl,
                             const tech::Library& lib) {
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();

  AgingCase c{"failure_suite_40pt", nl.name(), 0, 0, false};
  const aging::FailureParams p;
  aging::FailureReport serial, parallel;
  c.serial_ms =
      time_ms_at(1, [&] { serial = aging::analyze_failure(an, policy, p); });
  c.parallel_ms =
      time_ms_at(8, [&] { parallel = aging::analyze_failure(an, policy, p); });
  c.identical = same_failure_report(serial, parallel);
  return c;
}

AgingCase case_thermal_sweep(const netlist::Netlist& nl,
                             const tech::Library& lib) {
  const thermal::RcThermalModel model;
  const std::vector<bool> standby(nl.num_inputs(), false);
  std::vector<double> powers;
  for (int i = 0; i < 16; ++i) powers.push_back(20.0 + 6.0 * i);
  const thermal::ElectrothermalParams params{.replication = 1e5};

  AgingCase c{"thermal_sweep_16pt", nl.name(), 0, 0, false};
  std::vector<thermal::OperatingPoint> serial, parallel;
  c.serial_ms = time_ms_at(
      1,
      [&] {
        serial = thermal::solve_operating_points(nl, lib, model, standby,
                                                 powers, params);
      },
      1);
  c.parallel_ms = time_ms_at(
      8,
      [&] {
        parallel = thermal::solve_operating_points(nl, lib, model, standby,
                                                   powers, params);
      },
      1);
  c.identical = serial.size() == parallel.size();
  for (std::size_t i = 0; c.identical && i < serial.size(); ++i) {
    c.identical = serial[i].temperature_k == parallel[i].temperature_k &&
                  serial[i].leakage_w == parallel[i].leakage_w &&
                  serial[i].iterations == parallel[i].iterations &&
                  serial[i].converged == parallel[i].converged;
  }
  return c;
}

void write_bench_multi_json(const char* path) {
  const tech::Library lib;
  const netlist::Netlist c432 = netlist::iscas85_like("c432");
  const netlist::Netlist rand_dag = netlist::make_random_dag(
      "rand800", {.n_inputs = 32, .n_outputs = 16, .n_gates = 800,
                  .seed = 3, .locality = 0.75});

  std::vector<AgingCase> cases;
  for (const netlist::Netlist* nl : {&c432, &rand_dag}) {
    cases.push_back(case_failure_suite(*nl, lib));
  }
  cases.push_back(case_thermal_sweep(c432, lib));

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-multi-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const AgingCase& c = cases[i];
    const double speedup =
        c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
        << "\", \"serial_ms\": " << c.serial_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << speedup
        << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n";
  for (const AgingCase& c : cases) {
    std::cout << "  " << c.name << " [" << c.netlist
              << "]: serial " << c.serial_ms << " ms, parallel "
              << c.parallel_ms << " ms, speedup "
              << (c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0)
              << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
  }
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_registry.json.
//
// Measures what the open AnalysisRegistry costs per task dispatch compared
// with the closed enum switch it replaced. The switch resolved each handler
// at compile time, so its stand-in resolves every Analysis pointer once up
// front; the registry path pays the by-name map lookup plus the virtual call
// on every dispatch, exactly like campaign::execute_task and Task::key do.
// Both sides compute the task fingerprint so the delta is pure dispatch.

void write_bench_registry_json(const char* path) {
  const analysis::AnalysisRegistry& reg = analysis::AnalysisRegistry::global();
  const std::vector<std::string> names = reg.names();
  const analysis::Params params;

  std::vector<const analysis::Analysis*> resolved;
  resolved.reserve(names.size());
  for (const std::string& n : names) resolved.push_back(&reg.at(n));

  constexpr int kIters = 200000;
  std::size_t sink = 0;
  const double switch_ms = time_ms(
      [&] {
        for (int i = 0; i < kIters; ++i) {
          const analysis::Analysis* a = resolved[i % resolved.size()];
          sink += a->fingerprint(params).size();
        }
      },
      1);
  const double registry_ms = time_ms(
      [&] {
        for (int i = 0; i < kIters; ++i) {
          sink += reg.at(names[i % names.size()]).fingerprint(params).size();
        }
      },
      1);
  benchmark::DoNotOptimize(sink);

  const double switch_ns = switch_ms * 1e6 / kIters;
  const double registry_ns = registry_ms * 1e6 / kIters;
  const double ratio = switch_ns > 0.0 ? registry_ns / switch_ns : 0.0;

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-registry-v1\",\n"
      << "  \"analyses\": " << names.size() << ",\n"
      << "  \"dispatches\": " << kIters << ",\n"
      << "  \"enum_switch_ns\": " << switch_ns << ",\n"
      << "  \"registry_ns\": " << registry_ns << ",\n"
      << "  \"overhead_ratio\": " << ratio << "\n}\n";

  std::cout << "bench_perf_micro: wrote " << path
            << "\n  dispatch+fingerprint: pre-resolved " << switch_ns
            << " ns, registry " << registry_ns << " ns, overhead x" << ratio
            << "\n";
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_query.json.
//
// Prices the sidecar index (campaign/index.h + src/query) against the full
// rescan it replaced: a 12,000-row 16-shard store is written once, then
// three representative queries run both ways — "rescan" loads every row
// through ShardedStore and filters naively; "indexed" opens a StoreView
// (sidecar only) and runs run_query(), which parses just the rows whose
// index entries survive the predicates. Both sides include their open cost,
// since "answer one query against a cold store" is the operation the
// `campaign query` verb performs. Results are cross-checked for equal match
// counts before the speedup is reported.

common::json::Value bench_query_row(int i) {
  static const char* kNetlists[] = {"c432", "c880", "c1908", "c3540"};
  static const char* kAnalyses[] = {"aging", "st", "lifetime"};
  char hash[32];
  std::snprintf(hash, sizeof hash, "%x%015x", i % 16, i);
  common::json::Value row;
  row.set("hash", std::string(hash));
  row.set("campaign", "bench_query");
  row.set("netlist", kNetlists[i % 4]);
  row.set("ras", i % 2 == 0 ? "1:9" : "5:5");
  row.set("t_active", 400.0);
  row.set("t_standby", 300.0 + 10.0 * (i % 11));
  row.set("years", 10.0);
  row.set("analysis", kAnalyses[i % 3]);
  common::json::Value metrics;
  metrics.set("worst_pct", 4.0 + 0.125 * (i % 41));
  metrics.set("fresh_ns", 3.0 + 0.0625 * (i % 17));
  metrics.set("leak_ua", 50.0 + 0.25 * (i % 101));
  row.set("metrics", std::move(metrics));
  return row;
}

void write_bench_query_json(const char* path) {
  constexpr int kRows = 12000;
  const std::string store_path = "BENCH_query_store.jsonl";
  std::remove(store_path.c_str());
  for (int h = 0; h < campaign::ShardedStore::kMaxShards; ++h) {
    const std::string sp = campaign::ShardedStore::shard_path(store_path, h);
    std::remove(sp.c_str());
    std::remove(campaign::index_path(sp).c_str());
  }
  {
    campaign::ShardedStore store(store_path, 16);
    std::vector<common::json::Value> batch;
    batch.reserve(256);
    for (int i = 0; i < kRows; ++i) {
      batch.push_back(bench_query_row(i));
      if (batch.size() == 256) {
        store.append(batch);
        batch.clear();
      }
    }
    if (!batch.empty()) store.append(batch);
  }

  struct QueryCase {
    const char* name;
    const char* text;
    bool (*matches)(const common::json::Value& row);
  };
  const QueryCase kCases[] = {
      // ~1/44 of the store: one netlist under a tight metric range.
      {"selective_filter",
       R"({"where":{"netlist":"c432","worst_pct":{"min":8.0}},)"
       R"("select":["netlist","ras","t_standby","worst_pct"]})",
       [](const common::json::Value& row) {
         return row.at("netlist").as_string() == "c432" &&
                row.at("metrics").at("worst_pct").as_number() >= 8.0;
       }},
      // Pure coordinate aggregation: the indexed side parses zero rows.
      {"count_by_coords",
       R"({"where":{"analysis":"aging"},)"
       R"("agg":{"op":"count","by":["netlist","analysis"]}})",
       [](const common::json::Value& row) {
         return row.at("analysis").as_string() == "aging";
       }},
      // Point lookup by hash.
      {"hash_lookup", R"({"where":{"hash":"b00000000000000b"}})",
       [](const common::json::Value& row) {
         return row.at("hash").as_string() == "b00000000000000b";
       }},
  };

  struct QueryBenchResult {
    const char* name;
    double rescan_ms, cold_ms, warm_ms;
    std::size_t matched, rows_parsed;
    bool identical;
  };
  const query::StoreView shared_view(store_path);  // the serve-mode view
  std::vector<QueryBenchResult> results;
  for (const QueryCase& qc : kCases) {
    const query::Query q =
        query::parse_query(common::json::parse(qc.text));
    std::size_t rescan_matched = 0;
    const double rescan_ms = time_ms([&] {
      // The pre-index answer path: load (= parse) every row, filter in
      // memory.
      const campaign::ShardedStore store(store_path, 1);
      std::size_t n = 0;
      for (const common::json::Value* row : store.all_rows()) {
        if (qc.matches(*row)) ++n;
      }
      rescan_matched = n;
      benchmark::DoNotOptimize(rescan_matched);
    });
    query::QueryResult indexed;
    // Cold: open the view (sidecars only) and answer — the `campaign query`
    // verb. Warm: answer against the already-open view — every request after
    // the first in a `campaign serve` session.
    const double cold_ms = time_ms([&] {
      const query::StoreView view(store_path);
      indexed = query::run_query(view, q, 1);
      benchmark::DoNotOptimize(indexed.rows.size());
    });
    const double warm_ms = time_ms([&] {
      indexed = query::run_query(shared_view, q, 1);
      benchmark::DoNotOptimize(indexed.rows.size());
    });
    results.push_back({qc.name, rescan_ms, cold_ms, warm_ms,
                       indexed.stats.rows_matched, indexed.stats.rows_parsed,
                       indexed.stats.rows_matched == rescan_matched});
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-query-v1\",\n"
      << "  \"store_rows\": " << kRows << ",\n  \"shards\": 16,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const QueryBenchResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"rescan_ms\": " << r.rescan_ms
        << ", \"indexed_cold_ms\": " << r.cold_ms
        << ", \"indexed_warm_ms\": " << r.warm_ms
        << ", \"speedup_cold\": " << ratio(r.rescan_ms, r.cold_ms)
        << ", \"speedup_warm\": " << ratio(r.rescan_ms, r.warm_ms)
        << ", \"matched\": " << r.matched
        << ", \"rows_parsed\": " << r.rows_parsed
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n";
  for (const QueryBenchResult& r : results) {
    std::cout << "  " << r.name << ": rescan " << r.rescan_ms << " ms, cold "
              << r.cold_ms << " ms (x" << ratio(r.rescan_ms, r.cold_ms)
              << "), warm " << r.warm_ms << " ms (x"
              << ratio(r.rescan_ms, r.warm_ms) << "), " << r.matched
              << " matched, " << r.rows_parsed << " of " << kRows
              << " rows parsed" << (r.identical ? "" : " MISMATCH!") << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --aging-json-only: write just BENCH_aging.json and exit — the check.sh
  // pre-merge step that diffs its key set against tools/golden.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--aging-json-only") {
      write_bench_aging_json("BENCH_aging.json");
      return 0;
    }
  }
  write_bench_aging_json("BENCH_aging.json");
  write_bench_variation_json("BENCH_variation.json");
  write_bench_sizing_json("BENCH_sizing.json");
  write_bench_campaign_json("BENCH_campaign.json");
  write_bench_pool_json("BENCH_pool.json");
  write_bench_multi_json("BENCH_multi.json");
  write_bench_registry_json("BENCH_registry.json");
  write_bench_query_json("BENCH_query.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
