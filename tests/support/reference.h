/// \file reference.h
/// \brief Deliberately naive reference evaluators for the differential tests.
///
/// Each function here recomputes a result the slow, obvious way — one
/// one-shot device-model composition (equivalent cycle, then ac_delta_vth)
/// per PMOS or NMOS per horizon, the literal S_n recursion, one stress
/// context per device, a std::vector<bool> per net for logic simulation, a
/// predecessor per net for the critical path, full delay rebuild + full STA
/// per sizing trial, a fresh analyzer per control-point trial, an eager
/// lifetime grid, Monte-Carlo samples drawn and scaled inline, a
/// path-walking STA per derate cell, the sleep-transistor series' own grid
/// and loop, a whole leakage table per electrothermal iterate, a nested
/// bisection per stacked OFF device, snprintf and strtod for JSON number
/// text, a JSON tree per sidecar index line — and serves as the oracle
/// that tests/test_differential.cpp property-tests the optimized engines
/// against across random netlists, seeds, thread counts and horizons.
/// Keep them boring: no caching, no incremental updates, no parallelism.
/// The one deliberate sophistication is FP discipline — every accumulation
/// mirrors the production expression order, so the comparisons can demand
/// bitwise equality instead of tolerances.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aging/aging.h"
#include "aging/failure.h"
#include "campaign/index.h"
#include "campaign/store.h"
#include "common/json.h"
#include "common/rng.h"
#include "leakage/leakage.h"
#include "nbti/ac_model.h"
#include "nbti/device_aging.h"
#include "nbti/rd_model.h"
#include "opt/inc_insertion.h"
#include "opt/sizing.h"
#include "opt/sleep_transistor.h"
#include "report/derate.h"
#include "report/report.h"
#include "sim/simulator.h"
#include "sta/sta.h"
#include "tech/device.h"
#include "tech/stack.h"
#include "tech/units.h"
#include "thermal/electrothermal.h"
#include "variation/criticality.h"
#include "variation/lifetime.h"
#include "variation/variation.h"

namespace nbtisim::testsupport {

/// One gate function over scalar boolean fanins.
inline bool reference_eval_gate(tech::GateFn fn,
                                const std::vector<bool>& fanins) {
  using tech::GateFn;
  if (fanins.empty()) throw std::invalid_argument("eval_gate: no fanins");
  switch (fn) {
    case GateFn::Not:
      return !fanins[0];
    case GateFn::Buf:
      return fanins[0];
    case GateFn::And:
    case GateFn::Nand: {
      bool all = true;
      for (bool v : fanins) all = all && v;
      return fn == GateFn::And ? all : !all;
    }
    case GateFn::Or:
    case GateFn::Nor: {
      bool any = false;
      for (bool v : fanins) any = any || v;
      return fn == GateFn::Or ? any : !any;
    }
    case GateFn::Xor:
    case GateFn::Xnor: {
      bool acc = false;
      for (bool v : fanins) acc = acc != v;
      return fn == GateFn::Xor ? acc : !acc;
    }
  }
  throw std::logic_error("eval_gate: unknown function");
}

/// Every net's value for one PI assignment, one boolean at a time, with
/// \p forces applied as each net's value is determined (PI assignment or
/// gate evaluation), so a forced value propagates downstream; a net forced
/// twice takes its last force.  The oracle for sim::Simulator's word loop:
/// evaluate, evaluate_forced and each bit of evaluate_words.
inline std::vector<bool> reference_evaluate_forced(
    const netlist::Netlist& nl, const std::vector<bool>& pi_values,
    std::span<const std::pair<netlist::NodeId, bool>> forces = {}) {
  if (static_cast<int>(pi_values.size()) != nl.num_inputs()) {
    throw std::invalid_argument("Simulator::evaluate: PI count mismatch");
  }
  std::vector<signed char> forced(nl.num_nodes(), -1);
  for (const auto& [node, v] : forces) {
    if (node < 0 || node >= nl.num_nodes()) {
      throw std::invalid_argument("Simulator::evaluate_forced: bad net id");
    }
    forced[node] = v ? 1 : 0;
  }
  std::vector<bool> value(nl.num_nodes(), false);
  for (int i = 0; i < nl.num_inputs(); ++i) {
    const netlist::NodeId n = nl.inputs()[i];
    value[n] = forced[n] < 0 ? pi_values[i] : forced[n] != 0;
  }
  std::vector<bool> ins;
  for (const netlist::Gate& g : nl.gates()) {
    if (forced[g.output] >= 0) {
      value[g.output] = forced[g.output] != 0;
      continue;
    }
    ins.clear();
    for (netlist::NodeId in : g.fanins) ins.push_back(value[in]);
    value[g.output] = reference_eval_gate(g.fn, ins);
  }
  return value;
}

/// Longest-path analysis that records each net's predecessor as the forward
/// pass picks it (the latest fanin, the last one on ties) and walks those
/// records back from the critical output.  The oracle for
/// StaEngine::analyze and StaEngine::critical_delay.
inline sta::TimingResult reference_analyze(const sta::StaEngine& sta,
                                           std::span<const double> gate_delay) {
  const netlist::Netlist& nl = sta.netlist();
  sta::TimingResult r;
  r.arrival.assign(nl.num_nodes(), 0.0);
  std::vector<netlist::NodeId> pred(nl.num_nodes(), -1);
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::Gate& g = nl.gate(gi);
    double in_arr = 0.0;
    netlist::NodeId worst_in = -1;
    for (netlist::NodeId in : g.fanins) {
      if (r.arrival[in] >= in_arr || worst_in < 0) {
        in_arr = r.arrival[in];
        worst_in = in;
      }
    }
    r.arrival[g.output] = in_arr + gate_delay[gi];
    pred[g.output] = worst_in;
  }
  netlist::NodeId crit_po = -1;
  for (netlist::NodeId po : nl.outputs()) {
    if (crit_po < 0 || r.arrival[po] > r.max_delay) {
      r.max_delay = r.arrival[po];
      crit_po = po;
    }
  }
  for (netlist::NodeId n = crit_po; n >= 0; n = pred[n]) {
    r.critical_path.push_back(n);
  }
  std::reverse(r.critical_path.begin(), r.critical_path.end());
  return r;
}

/// dVth after \p total_time of the AC pattern \p stress by the literal
/// per-cycle recursion of eqs. (9)-(10) (nbti::sn_exact, O(n) in the cycle
/// count) instead of the production hybrid closed form — the accuracy
/// oracle for nbti::ac_delta_vth.
inline double reference_ac_delta_vth_exact(const nbti::RdParams& p,
                                           double temp_k,
                                           const nbti::AcStress& stress,
                                           double total_time, double vgs,
                                           double vth) {
  if (stress.duty == 0.0 || total_time == 0.0) return 0.0;
  if (stress.duty == 1.0) {
    return nbti::dc_delta_vth(p, temp_k, total_time, vgs, vth);
  }
  const double n = std::max(1.0, total_time / stress.period);
  return nbti::kv_at(p, temp_k, vgs, vth) *
         nbti::sn_exact(stress.duty,
                        static_cast<std::int64_t>(std::llround(n))) *
         std::pow(stress.period, 0.25);
}

/// dVth of one device after \p total_time, the one-shot way: the equivalent
/// cycle of (\p stress, \p schedule), then ac_delta_vth over the equivalent
/// time (the wall-clock cycle count times the equivalent period) — no stress
/// context, no S_n prefix.  The oracle for both DeviceAging::delta_vth
/// overloads, which evaluate through one StressContext.
inline double reference_delta_vth(const nbti::RdParams& p,
                                  const nbti::DeviceStress& stress,
                                  const nbti::ModeSchedule& schedule,
                                  double total_time) {
  if (!(total_time >= 0.0)) {
    throw std::invalid_argument("reference_delta_vth: bad total time");
  }
  if (total_time == 0.0) return 0.0;
  const nbti::EquivalentCycle eq = nbti::equivalent_cycle(p, stress, schedule);
  if (eq.stress_time <= 0.0) return 0.0;
  const double n_cycles = total_time / schedule.period();
  const double total_equivalent = n_cycles * eq.period();
  return nbti::ac_delta_vth(p, schedule.temp_active,
                            nbti::AcStress{eq.duty(), eq.period()},
                            total_equivalent, stress.vgs, stress.vth0);
}

/// One device's evaluation state, field by field the obvious way: the
/// equivalent cycle, the literal S_n recursion to kSnExactCycles
/// (nbti::sn_exact), kv_at and pow, one device at a time.  The oracle for
/// DeviceAging::make_contexts, which computes one S_n prefix per distinct
/// duty of its batch, the recursions lane-interleaved.  A device without
/// equivalent stress keeps the default fields and always_zero.
inline nbti::DeviceAging::StressContext reference_stress_context(
    const nbti::RdParams& p, const nbti::DeviceStress& stress,
    const nbti::ModeSchedule& schedule) {
  nbti::DeviceAging::StressContext ctx;
  ctx.schedule_period = schedule.period();
  ctx.temp_active = schedule.temp_active;
  ctx.vgs = stress.vgs;
  ctx.vth0 = stress.vth0;
  const nbti::EquivalentCycle eq = nbti::equivalent_cycle(p, stress, schedule);
  if (eq.stress_time <= 0.0) {
    ctx.always_zero = true;
    return ctx;
  }
  ctx.eq_period = eq.period();
  ctx.ac = nbti::AcStress{eq.duty(), eq.period()};
  ctx.prefix.duty = ctx.ac.duty;
  if (ctx.ac.duty != 0.0) {
    ctx.prefix.s = nbti::sn_exact(
        ctx.ac.duty, static_cast<std::int64_t>(nbti::kSnExactCycles));
    ctx.prefix.step =
        ctx.ac.duty / (4.0 * (1.0 + nbti::ac_beta(ctx.ac.duty)));
  }
  ctx.kv = nbti::kv_at(p, ctx.temp_active, ctx.vgs, ctx.vth0);
  ctx.period_pow = std::pow(ctx.ac.period, 0.25);
  return ctx;
}

/// Worst-device dVth per gate at \p total_time, the scalar way: every
/// device's DeviceStress is rebuilt from the analyzer's signal statistics
/// and a fresh standby simulation, then evaluated with one
/// reference_delta_vth call — no stress contexts, no SoA kernel, no
/// descriptor cache.  A PMOS sits on every stage input and is NBTI-stressed
/// while its gate signal is 0; an NMOS sits on every stage input too and is
/// PBTI-stressed while the signal is 1.  The oracle for
/// AgingAnalyzer::gate_dvth (Pmos) and for worst_per_gate over
/// build_stress(policy, Nmos).
inline std::vector<double> reference_gate_dvth(
    const aging::AgingAnalyzer& analyzer, const aging::StandbyPolicy& policy,
    double total_time, tech::Channel channel = tech::Channel::Pmos) {
  const sta::StaEngine& sta = analyzer.sta();
  const netlist::Netlist& nl = sta.netlist();
  const tech::Library& lib = sta.library();
  const aging::AgingConditions& cond = analyzer.conditions();
  const sim::SignalStats& stats = analyzer.signal_stats();
  const bool nmos = channel == tech::Channel::Nmos;

  // Standby net values: one set per standby vector of the policy.
  std::vector<std::vector<bool>> standby;
  if (policy.kind == aging::StandbyPolicy::Kind::Vector) {
    standby.push_back(
        sim::Simulator(nl).evaluate_forced(policy.vector, policy.forces));
  } else if (policy.kind == aging::StandbyPolicy::Kind::Rotating) {
    for (const std::vector<bool>& v : policy.rotation) {
      standby.push_back(sim::Simulator(nl).evaluate_forced(v, policy.forces));
    }
  }

  std::vector<double> dvth(nl.num_gates(), 0.0);
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::Gate& g = nl.gate(gi);
    const tech::Cell& cell = lib.cell(sta.gate_cell(gi));
    std::vector<double> pin_sp;
    for (netlist::NodeId in : g.fanins) pin_sp.push_back(stats.probability[in]);
    const std::vector<double> sp = cell.signal_probabilities(pin_sp);
    for (const tech::Stage& stage : cell.stages()) {
      for (int sig : stage.inputs) {
        nbti::DeviceStress stress;
        stress.vgs = lib.params().vdd;
        const double offset =
            cond.gate_vth_offsets.empty() ? 0.0 : cond.gate_vth_offsets[gi];
        if (nmos) {
          stress.active_stress_prob = sp[sig];
          stress.vth0 = lib.params().nmos.vth0 + offset;
        } else {
          stress.active_stress_prob = 1.0 - sp[sig];
          stress.vth0 = lib.params().pmos.vth0 + offset;
        }
        switch (policy.kind) {
          case aging::StandbyPolicy::Kind::AllStressed:  // every net at 0
            stress.standby = nmos ? nbti::StandbyMode::Relaxed
                                  : nbti::StandbyMode::Stressed;
            break;
          case aging::StandbyPolicy::Kind::AllRelaxed:  // every net at 1
            stress.standby = nmos ? nbti::StandbyMode::Stressed
                                  : nbti::StandbyMode::Relaxed;
            break;
          case aging::StandbyPolicy::Kind::Vector:
          case aging::StandbyPolicy::Kind::Rotating: {
            int stressed = 0;
            for (const std::vector<bool>& values : standby) {
              std::uint32_t bits = 0;
              for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
                bits |= values[g.fanins[pin]] ? (1u << pin) : 0u;
              }
              const bool high = cell.signal_values(bits)[sig];
              stressed += (nmos ? high : !high) ? 1 : 0;
            }
            stress.standby_stress_fraction =
                static_cast<double>(stressed) / standby.size();
            break;
          }
        }
        dvth[gi] = std::max(dvth[gi], reference_delta_vth(cond.rd, stress,
                                                          cond.schedule,
                                                          total_time));
      }
    }
  }
  return dvth;
}

/// All aged gate delays for the given per-gate size factors, rebuilt from
/// nothing: rediscovers the fanout structure on every call.
inline std::vector<double> reference_aged_delays(
    const aging::AgingAnalyzer& analyzer, const std::vector<double>& dvth,
    const std::vector<double>& sizes) {
  const sta::StaEngine& sta = analyzer.sta();
  const tech::Library& lib = sta.library();
  const netlist::Netlist& nl = sta.netlist();
  const double temp = analyzer.conditions().schedule.temp_active;
  const double alpha = lib.params().pmos.alpha;
  const double vdd = lib.params().vdd;
  const double vth0 = lib.params().pmos.vth0;
  const double wire = lib.params().wire_cap_per_fanout;
  const double po_load = lib.input_cap(lib.find("BUF"), 0) + wire;

  std::vector<double> delays(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::NodeId out = nl.gate(gi).output;
    // Per sink pin, in fanout order, pin cap x sink size + wire, then the
    // PO load: the STA's load sum, which sizing reads.
    double load = 0.0;
    for (int sink : nl.fanout_gates(out)) {
      const netlist::Gate& sg = nl.gate(sink);
      for (std::size_t pin = 0; pin < sg.fanins.size(); ++pin) {
        if (sg.fanins[pin] == out) {
          load += lib.input_cap(sta.gate_cell(sink), static_cast<int>(pin)) *
                      sizes[sink] +
                  wire;
        }
      }
    }
    if (std::find(nl.outputs().begin(), nl.outputs().end(), out) !=
        nl.outputs().end()) {
      load += po_load;
    }
    delays[gi] = lib.cell_delay(sta.gate_cell(gi), load / sizes[gi], temp) *
                 (1.0 + alpha * dvth[gi] / (vdd - vth0));
  }
  return delays;
}

/// Full-rebuild STA for the given size factors.
inline sta::TimingResult reference_aged_timing(
    const aging::AgingAnalyzer& analyzer, const std::vector<double>& dvth,
    const std::vector<double>& sizes) {
  return reference_analyze(analyzer.sta(),
                           reference_aged_delays(analyzer, dvth, sizes));
}

/// The pre-optimization sizing loop: serial, full delay rebuild + full STA
/// per candidate trial, and a redundant full re-evaluation after every
/// accepted move.
inline opt::SizingResult reference_size_for_lifetime(
    const aging::AgingAnalyzer& analyzer, const aging::StandbyPolicy& policy,
    const opt::SizingParams& params = {}) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  const std::vector<double> dvth = analyzer.gate_dvth(policy);

  opt::SizingResult r;
  r.sizes.assign(nl.num_gates(), 1.0);
  r.fresh_delay = analyzer.sta()
                      .analyze(analyzer.sta().gate_delays(
                          analyzer.conditions().schedule.temp_active))
                      .max_delay;
  r.spec = r.fresh_delay * (1.0 + params.spec_margin_percent / 100.0);

  sta::TimingResult aged = reference_aged_timing(analyzer, dvth, r.sizes);
  r.aged_before = aged.max_delay;

  while (aged.max_delay > r.spec && r.moves < params.max_moves) {
    int best_gate = -1;
    double best_ratio = 0.0;
    for (netlist::NodeId node : aged.critical_path) {
      const int gi = nl.driver_gate(node);
      if (gi < 0) continue;
      if (r.sizes[gi] + params.size_step > params.max_size) continue;
      std::vector<double> trial = r.sizes;
      trial[gi] += params.size_step;
      const double d = reference_aged_timing(analyzer, dvth, trial).max_delay;
      const double gain = aged.max_delay - d;
      if (gain > 0.0 && gain / params.size_step > best_ratio) {
        best_ratio = gain / params.size_step;
        best_gate = gi;
      }
    }
    if (best_gate < 0) break;
    r.sizes[best_gate] += params.size_step;
    ++r.moves;
    aged = reference_aged_timing(analyzer, dvth, r.sizes);
  }

  r.aged_after = aged.max_delay;
  r.met = aged.max_delay <= r.spec;
  return r;
}

/// Control-point insertion the pre-select way: every trial builds its own
/// AgingAnalyzer (signal statistics, STA set-up and all) and evaluates the
/// trial's forced-vector stress with worst_per_gate(build_stress(policy,
/// Pmos)); the driver penalties scale that analyzer's fresh delays before
/// the delay law applies (fresh × scale × Taylor factor, or the exact
/// re-evaluated delay × scale), and the accepted state is re-evaluated at
/// the end.  The oracle for opt::insert_control_points, which runs every
/// trial on the one analyzer it is given.
inline opt::IncInsertionResult reference_insert_control_points(
    const netlist::Netlist& nl, const tech::Library& lib,
    const aging::AgingConditions& cond,
    const opt::IncInsertionParams& params) {
  const tech::LibraryParams& lp = lib.params();
  auto evaluate = [&](const aging::StandbyPolicy& policy,
                      const std::vector<double>& scale) {
    const aging::AgingAnalyzer an(nl, lib, cond);
    const std::vector<double> dvth = an.worst_per_gate(
        an.build_stress(policy, tech::Channel::Pmos), cond.total_time);
    std::vector<double> fresh = an.sta().gate_delays(
        cond.schedule.temp_active, {}, cond.gate_vth_offsets);
    std::vector<double> aged =
        cond.taylor_delay
            ? fresh
            : an.sta().gate_delays(cond.schedule.temp_active, dvth,
                                   cond.gate_vth_offsets);
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      fresh[gi] *= scale[gi];
      if (cond.taylor_delay) {
        const double offset =
            cond.gate_vth_offsets.empty() ? 0.0 : cond.gate_vth_offsets[gi];
        aged[gi] = fresh[gi] * (1.0 + lp.pmos.alpha * dvth[gi] /
                                          (lp.vdd - lp.pmos.vth0 - offset));
      } else {
        aged[gi] *= scale[gi];
      }
    }
    aging::DegradationReport rep;
    rep.fresh_delay = an.sta().analyze(fresh).max_delay;
    rep.aged_delay = an.sta().analyze(aged).max_delay;
    return rep;
  };

  const std::vector<bool> zeros(nl.num_inputs(), false);
  aging::StandbyPolicy policy = aging::StandbyPolicy::from_vector(zeros);
  std::vector<double> scale(nl.num_gates(), 1.0);
  const aging::DegradationReport base = evaluate(policy, scale);

  // Candidates: nets at 0 under the all-zero vector, readers weighted by
  // criticality, drivers without the slack for the penalty skipped.
  const sta::StaEngine sta(nl, lib);
  const std::vector<bool> standby = sim::Simulator(nl).evaluate(zeros);
  const std::vector<double> fresh_delays =
      sta.gate_delays(cond.schedule.temp_active, {}, cond.gate_vth_offsets);
  const sta::TimingResult fresh_timing = sta.analyze(fresh_delays);
  const std::vector<double> slack = sta.slacks(fresh_timing, fresh_delays);
  const double horizon = std::max(fresh_timing.max_delay, 1e-30);
  std::vector<std::pair<netlist::NodeId, double>> candidates;
  for (netlist::NodeId n = 0; n < nl.num_nodes(); ++n) {
    if (standby[n] || nl.fanout_gates(n).empty()) continue;
    double benefit = 0.0;
    for (int gi : nl.fanout_gates(n)) {
      benefit += 1.0 / (1.0 + 50.0 * (slack[nl.gate(gi).output] / horizon));
    }
    const int driver = nl.driver_gate(n);
    if (driver >= 0 &&
        slack[n] < params.driver_delay_penalty * fresh_delays[driver]) {
      continue;
    }
    candidates.emplace_back(n, benefit);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  opt::IncInsertionResult r;
  double current = base.percent();
  const int pool = std::min<int>(static_cast<int>(candidates.size()),
                                 4 * params.max_control_points);
  for (int k = 0; k < pool; ++k) {
    if (static_cast<int>(r.controlled.size()) >= params.max_control_points) {
      break;
    }
    const netlist::NodeId n = candidates[k].first;
    aging::StandbyPolicy trial_policy = policy;
    trial_policy.forces.emplace_back(n, true);
    std::vector<double> trial_scale = scale;
    const int driver = nl.driver_gate(n);
    if (driver >= 0) trial_scale[driver] = 1.0 + params.driver_delay_penalty;
    const double trial = evaluate(trial_policy, trial_scale).percent();
    if (trial < current) {
      current = trial;
      policy = std::move(trial_policy);
      scale = std::move(trial_scale);
      r.controlled.push_back(n);
    }
  }

  const aging::DegradationReport after = evaluate(policy, scale);
  r.fresh_before = base.fresh_delay;
  r.fresh_after = after.fresh_delay;
  r.aging_before = base.percent();
  r.aging_after = after.percent();
  return r;
}

/// Lifetime distribution with the eager grid: nominal dVth at every grid
/// time up front, then one serial bisection per sample that re-prices each
/// grid point it reads with a full analyze() — no per-point memo, no lazy
/// evaluation.  The oracle for variation::lifetime_distribution, which
/// computes a grid point on its first read.
inline variation::LifetimeResult reference_lifetime_distribution(
    const aging::AgingAnalyzer& analyzer, const aging::StandbyPolicy& policy,
    const variation::LifetimeParams& params = {}) {
  const sta::StaEngine& sta = analyzer.sta();
  const netlist::Netlist& nl = sta.netlist();
  const tech::LibraryParams& lp = sta.library().params();
  const nbti::RdParams& rd = analyzer.conditions().rd;
  const std::vector<double> fresh =
      sta.gate_delays(analyzer.conditions().schedule.temp_active);
  const double spec = sta.analyze(fresh).max_delay *
                      (1.0 + params.spec_margin_percent / 100.0);
  const variation::LinearizedDelay law(lp);
  const double ff_nominal = nbti::field_factor(rd, lp.vdd, lp.pmos.vth0);

  const int n_grid = params.time_grid_points;
  std::vector<double> grid_time(n_grid);
  std::vector<std::vector<double>> grid_dvth(n_grid);
  const double t_min = params.max_time / std::pow(2.0, n_grid - 1.0) * 2.0;
  const double log_step = std::log(params.max_time / t_min) / (n_grid - 1);
  for (int k = 0; k < n_grid; ++k) {
    grid_time[k] = t_min * std::exp(log_step * k);
    grid_dvth[k] = analyzer.gate_dvth(policy, grid_time[k]);
  }

  variation::LifetimeResult result;
  result.max_time = params.max_time;
  result.grid_points_evaluated = n_grid;
  for (int s = 0; s < params.samples; ++s) {
    std::mt19937_64 rng(common::stream_seed(params.seed, s));
    std::normal_distribution<double> gauss(0.0, params.sigma_vth);
    std::vector<double> offsets(nl.num_gates());
    std::vector<double> ff_scale(nl.num_gates());
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      offsets[gi] = gauss(rng);
      const double ff =
          nbti::field_factor(rd, lp.vdd, lp.pmos.vth0 + offsets[gi]);
      ff_scale[gi] = ff_nominal > 0.0 ? ff / ff_nominal : 1.0;
    }
    auto delay_at_grid = [&](int k) {
      std::vector<double> delays(nl.num_gates());
      for (int gi = 0; gi < nl.num_gates(); ++gi) {
        const double dvth = grid_dvth[k][gi] * ff_scale[gi];
        delays[gi] = fresh[gi] * law.factor(offsets[gi] + dvth, nl, gi);
      }
      return sta.analyze(delays).max_delay;
    };

    double lifetime = 0.0;
    if (delay_at_grid(n_grid - 1) <= spec) {
      lifetime = params.max_time;
    } else if (delay_at_grid(0) > spec) {
      lifetime = grid_time[0];
    } else {
      int lo = 0, hi = n_grid - 1;
      while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        if (delay_at_grid(mid) > spec) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      const double d_lo = delay_at_grid(lo);
      const double d_hi = delay_at_grid(hi);
      const double frac = d_hi > d_lo ? (spec - d_lo) / (d_hi - d_lo) : 0.5;
      lifetime = grid_time[lo] * std::pow(grid_time[hi] / grid_time[lo], frac);
    }
    result.lifetimes.push_back(lifetime);
  }
  return result;
}

/// Fig. 12 delay distribution the way each Monte-Carlo layer sampled before
/// MonteCarloAging owned the sample: fresh delays re-derived from the STA
/// engine, each sample's offsets drawn and, with \p dvth_nominal (one per
/// gate), each gate's nominal dVth scaled by its field-factor ratio, inline
/// and serial, one full analyze() per sample.  An empty \p dvth_nominal
/// times the fresh circuit.  The oracle for MonteCarloAging's
/// fresh_distribution and aged_distribution.
inline variation::DelayDistribution reference_delay_distribution(
    const aging::AgingAnalyzer& analyzer,
    const variation::VariationParams& params,
    const std::vector<double>& dvth_nominal = {}) {
  const sta::StaEngine& sta = analyzer.sta();
  const netlist::Netlist& nl = sta.netlist();
  const tech::LibraryParams& lp = sta.library().params();
  const nbti::RdParams& rd = analyzer.conditions().rd;
  const std::vector<double> fresh =
      sta.gate_delays(analyzer.conditions().schedule.temp_active);
  const variation::LinearizedDelay law(lp);
  const double ff_nominal = nbti::field_factor(rd, lp.vdd, lp.pmos.vth0);

  variation::DelayDistribution dist;
  for (int s = 0; s < params.samples; ++s) {
    std::mt19937_64 rng(common::stream_seed(params.seed, s));
    std::normal_distribution<double> gauss(0.0, params.sigma_vth);
    std::vector<double> offsets(nl.num_gates());
    for (double& o : offsets) o = gauss(rng);
    std::vector<double> delays(nl.num_gates());
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      double shift = offsets[gi];
      if (!dvth_nominal.empty()) {
        const double ff =
            nbti::field_factor(rd, lp.vdd, lp.pmos.vth0 + offsets[gi]);
        const double dvth =
            dvth_nominal[gi] * (ff_nominal > 0.0 ? ff / ff_nominal : 1.0);
        shift = offsets[gi] + dvth;
      }
      delays[gi] = fresh[gi] * law.factor(shift, nl, gi);
    }
    dist.delays.push_back(sta.analyze(delays).max_delay);
  }
  return dist;
}

/// Per-gate criticality with the sampling inline: the fresh delays
/// re-derived, each gate's offset drawn and its aged shift (offset plus the
/// field-factor-scaled nominal dVth, plus 0 when fresh) formed in one loop,
/// samples serial with the hit counts summed as they come.  The oracle for
/// variation::gate_criticality.
inline variation::CriticalityResult reference_gate_criticality(
    const aging::AgingAnalyzer& analyzer,
    const variation::CriticalityParams& params) {
  const sta::StaEngine& sta = analyzer.sta();
  const netlist::Netlist& nl = sta.netlist();
  const tech::LibraryParams& lp = sta.library().params();
  const nbti::RdParams& rd = analyzer.conditions().rd;
  const std::vector<double> fresh =
      sta.gate_delays(analyzer.conditions().schedule.temp_active);
  std::vector<double> dvth_nominal;
  if (params.aged) {
    dvth_nominal = analyzer.gate_dvth(aging::StandbyPolicy::all_stressed(),
                                      params.total_time);
  }
  const variation::LinearizedDelay law(lp);
  const double ff_nominal = nbti::field_factor(rd, lp.vdd, lp.pmos.vth0);

  std::vector<double> hits(nl.num_gates(), 0.0);
  std::set<netlist::NodeId> critical_pos;
  for (int s = 0; s < params.samples; ++s) {
    std::mt19937_64 rng(common::stream_seed(params.seed, s));
    std::normal_distribution<double> gauss(0.0, params.sigma_vth);
    std::vector<double> delays(nl.num_gates());
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      const double offset = gauss(rng);
      double dvth = 0.0;
      if (params.aged) {
        const double ff =
            nbti::field_factor(rd, lp.vdd, lp.pmos.vth0 + offset);
        dvth = dvth_nominal[gi] * (ff_nominal > 0.0 ? ff / ff_nominal : 1.0);
      }
      delays[gi] = fresh[gi] * law.factor(offset + dvth, nl, gi);
    }
    const std::vector<netlist::NodeId> path = sta.analyze(delays).critical_path;
    for (netlist::NodeId node : path) {
      const int gi = nl.driver_gate(node);
      if (gi >= 0) hits[gi] += 1.0;
    }
    if (!path.empty()) critical_pos.insert(path.back());
  }

  variation::CriticalityResult result;
  for (double h : hits) result.probability.push_back(h / params.samples);
  result.distinct_paths = static_cast<int>(critical_pos.size());
  return result;
}

/// Per-cell derate table: every (policy, year) timed by reference_analyze,
/// the path-walking STA, over the analyzer's aged gate delays.  The oracle for
/// report::aging_derate_table, which reads AgingAnalyzer::analyze.
inline report::DerateTable reference_derate_table(
    const aging::AgingAnalyzer& analyzer, std::vector<double> years) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  report::DerateTable table;
  table.years = std::move(years);
  table.policy_names = {"worst_case", "inputs_all_zero", "best_case"};
  const std::vector<aging::StandbyPolicy> policies{
      aging::StandbyPolicy::all_stressed(),
      aging::StandbyPolicy::from_vector(
          std::vector<bool>(nl.num_inputs(), false)),
      aging::StandbyPolicy::all_relaxed(),
  };
  const double fresh =
      reference_analyze(analyzer.sta(), analyzer.fresh_delays()).max_delay;
  for (const aging::StandbyPolicy& policy : policies) {
    std::vector<double> col;
    for (double y : table.years) {
      const std::vector<double> aged = analyzer.aged_gate_delays(
          analyzer.gate_dvth(policy, y * kSecondsPerYear));
      col.push_back(reference_analyze(analyzer.sta(), aged).max_delay / fresh);
    }
    table.factors.push_back(std::move(col));
  }
  return table;
}

/// Fig. 11's with-ST series in one loop: its own log grid; per point the
/// gated logic's percent from a path-walking STA over the all-relaxed aged
/// delays, and the header's dVth from reference_delta_vth through the
/// eq. (29) switch on \p style.  The oracle
/// for opt::st_circuit_degradation_series, which reads
/// AgingAnalyzer::degradation_series and opt::st_drop_percent.
inline std::vector<opt::StDegradationPoint> reference_st_series(
    const aging::AgingAnalyzer& analyzer, opt::StStyle style,
    const opt::StParams& st, double t_min, double t_max, int n_points) {
  const aging::AgingConditions& cond = analyzer.conditions();
  nbti::DeviceStress header;  // on through active mode, off in standby
  header.active_stress_prob = 1.0;
  header.standby = nbti::StandbyMode::Relaxed;
  header.vgs = st.vdd;
  header.vth0 = st.vth_st;
  const double fresh =
      reference_analyze(analyzer.sta(), analyzer.fresh_delays()).max_delay;
  const double sigma0_percent = 100.0 * st.sigma;
  const double step = std::log(t_max / t_min) / (n_points - 1);
  std::vector<opt::StDegradationPoint> series;
  for (int i = 0; i < n_points; ++i) {
    opt::StDegradationPoint pt;
    pt.time = t_min * std::exp(step * i);
    const double aged =
        reference_analyze(analyzer.sta(),
                          analyzer.aged_gate_delays(analyzer.gate_dvth(
                              aging::StandbyPolicy::all_relaxed(), pt.time)))
            .max_delay;
    pt.logic_percent = fresh > 0.0 ? 100.0 * (aged - fresh) / fresh : 0.0;
    const double dvth = reference_delta_vth(cond.rd, header, cond.schedule,
                                            pt.time);
    const double headroom = st.vdd - st.vth_st;
    switch (style) {
      case opt::StStyle::Footer:
        pt.st_percent = sigma0_percent;
        break;
      case opt::StStyle::Header:
        pt.st_percent =
            sigma0_percent * headroom / std::max(1e-9, headroom - dvth);
        break;
      case opt::StStyle::FooterAndHeader:
        pt.st_percent =
            sigma0_percent +
            sigma0_percent * headroom / std::max(1e-9, headroom - dvth);
        break;
    }
    pt.total_percent = pt.logic_percent + pt.st_percent;
    series.push_back(pt);
  }
  return series;
}

/// Serial failure suite: the PBTI series from reference_gate_dvth's NMOS
/// devices (plain per-device delta_vth calls, no stress contexts), serial
/// per-gate loops, and its own inline crossing / Weibull arithmetic —
/// mirroring the production expression order so the differential test can
/// demand bitwise equality.
inline aging::FailureReport reference_failure_report(
    const aging::AgingAnalyzer& analyzer, const aging::StandbyPolicy& policy,
    const aging::FailureParams& params = {}) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  const tech::Library& lib = analyzer.sta().library();
  const aging::AgingConditions& cond = analyzer.conditions();
  const sim::SignalStats& stats = analyzer.signal_stats();
  const int n_gates = nl.num_gates();
  const double vdd = lib.params().vdd;
  const double period = cond.schedule.period();
  const double active_fraction =
      period > 0.0 ? cond.schedule.t_active / period : 0.0;

  // The same geometric grid as the production suite.
  const double t_max = params.max_years * kSecondsPerYear;
  const double t_min = t_max / 1.0e3;
  const double ratio =
      std::pow(t_max / t_min, 1.0 / static_cast<double>(params.time_points - 1));
  std::vector<double> t_sec(params.time_points);
  for (int i = 0; i < params.time_points; ++i) {
    t_sec[i] = t_min * std::pow(ratio, static_cast<double>(i));
  }
  t_sec.back() = t_max;
  const int n_points = static_cast<int>(t_sec.size());

  const auto naive_crossing = [&](const std::vector<double>& v) {
    double t_prev = 0.0;
    double v_prev = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] >= params.fail_dvth) {
        if (v[i] <= v_prev) return t_sec[i];
        return t_prev + (t_sec[i] - t_prev) * (params.fail_dvth - v_prev) /
                            (v[i] - v_prev);
      }
      t_prev = t_sec[i];
      v_prev = v[i];
    }
    return aging::kNeverFails;
  };

  aging::FailureReport rep;
  rep.weibull_beta = params.weibull_beta;

  if (params.enable_nbti) {
    std::vector<std::vector<double>> series(n_points);
    for (int i = 0; i < n_points; ++i) {
      series[i] = analyzer.gate_dvth(policy, t_sec[i]);
    }
    aging::MechanismMttf m;
    m.name = "nbti";
    m.gate_mttf.assign(n_gates, aging::kNeverFails);
    for (int gi = 0; gi < n_gates; ++gi) {
      std::vector<double> v(n_points);
      for (int i = 0; i < n_points; ++i) v[i] = series[i][gi];
      m.gate_mttf[gi] = naive_crossing(v) / kSecondsPerYear;
    }
    rep.mechanisms.push_back(std::move(m));
  }

  if (params.multi.enable_pbti) {
    std::vector<std::vector<double>> nmos(n_points);
    for (int i = 0; i < n_points; ++i) {
      nmos[i] = reference_gate_dvth(analyzer, policy, t_sec[i],
                                    tech::Channel::Nmos);
    }
    aging::MechanismMttf m;
    m.name = "pbti";
    m.gate_mttf.assign(n_gates, aging::kNeverFails);
    for (int gi = 0; gi < n_gates; ++gi) {
      std::vector<double> v(n_points);
      for (int i = 0; i < n_points; ++i) {
        v[i] = params.multi.pbti.ratio * nmos[i][gi];
      }
      m.gate_mttf[gi] = naive_crossing(v) / kSecondsPerYear;
    }
    rep.mechanisms.push_back(std::move(m));
  }

  if (params.multi.enable_hci) {
    aging::MechanismMttf m;
    m.name = "hci";
    m.gate_mttf.assign(n_gates, aging::kNeverFails);
    for (int gi = 0; gi < n_gates; ++gi) {
      const double activity = stats.activity[nl.gate(gi).output];
      std::vector<double> v(n_points);
      for (int i = 0; i < n_points; ++i) {
        v[i] = nbti::hci_delta_vth(params.multi.hci, activity,
                                   params.multi.clock_hz, cond.schedule,
                                   t_sec[i]);
      }
      m.gate_mttf[gi] = naive_crossing(v) / kSecondsPerYear;
    }
    rep.mechanisms.push_back(std::move(m));
  }

  if (params.enable_tddb) {
    double rate = 0.0;
    if (active_fraction > 0.0) {
      rate += active_fraction /
              nbti::tddb_mttf(params.tddb, vdd, cond.schedule.temp_active);
    }
    if (active_fraction < 1.0) {
      rate += (1.0 - active_fraction) /
              nbti::tddb_mttf(params.tddb, vdd, cond.schedule.temp_standby);
    }
    const double mttf =
        rate > 0.0 ? 1.0 / rate / kSecondsPerYear : aging::kNeverFails;
    aging::MechanismMttf m;
    m.name = "tddb";
    m.gate_mttf.assign(n_gates, mttf);
    rep.mechanisms.push_back(std::move(m));
  }

  if (params.enable_em) {
    const sta::StaEngine& sta = analyzer.sta();
    const double wire = lib.params().wire_cap_per_fanout;
    const double po_load = lib.input_cap(lib.find("BUF"), 0) + wire;
    aging::MechanismMttf m;
    m.name = "em";
    m.gate_mttf.assign(n_gates, aging::kNeverFails);
    for (int gi = 0; gi < n_gates; ++gi) {
      const netlist::NodeId out = nl.gate(gi).output;
      double load = 0.0;
      for (int sink : nl.fanout_gates(out)) {
        const netlist::Gate& sg = nl.gate(sink);
        for (std::size_t pin = 0; pin < sg.fanins.size(); ++pin) {
          if (sg.fanins[pin] == out) {
            load += wire +
                    lib.input_cap(sta.gate_cell(sink), static_cast<int>(pin));
          }
        }
      }
      if (std::find(nl.outputs().begin(), nl.outputs().end(), out) !=
          nl.outputs().end()) {
        load += po_load;
      }
      const double current =
          stats.activity[out] * params.multi.clock_hz * load * vdd;
      if (active_fraction <= 0.0) continue;
      m.gate_mttf[gi] =
          nbti::em_mttf(params.em, current, cond.schedule.temp_active) /
          active_fraction / kSecondsPerYear;
    }
    rep.mechanisms.push_back(std::move(m));
  }

  const double gamma = std::tgamma(1.0 + 1.0 / params.weibull_beta);
  rep.lambda = 0.0;
  for (aging::MechanismMttf& m : rep.mechanisms) {
    double lm = 0.0;
    for (double mttf : m.gate_mttf) {
      if (std::isfinite(mttf) && mttf > 0.0) {
        lm += std::pow(gamma / mttf, params.weibull_beta);
      }
    }
    m.system_mttf = lm > 0.0 ? std::pow(lm, -1.0 / params.weibull_beta) * gamma
                             : aging::kNeverFails;
    rep.lambda += lm;
  }
  rep.system_mttf = rep.lambda > 0.0
                        ? std::pow(rep.lambda, -1.0 / params.weibull_beta) *
                              gamma
                        : aging::kNeverFails;
  rep.failure_curve.reserve(params.curve_years.size());
  for (double y : params.curve_years) {
    rep.failure_curve.emplace_back(
        y, 1.0 - std::exp(-std::pow(y, params.weibull_beta) * rep.lambda));
  }
  return rep;
}

/// The whole-table electrothermal fixpoint: every iterate, and the exit
/// after the last one, builds a LeakageAnalyzer at its temperature (the
/// library's whole leakage table, and a simulation of the standby vector)
/// and reads the standby vector's circuit leakage from it.
inline thermal::OperatingPoint reference_operating_point(
    const netlist::Netlist& nl, const tech::Library& lib,
    const thermal::RcThermalModel& model,
    const std::vector<bool>& standby_vector,
    const thermal::ElectrothermalParams& params) {
  auto leakage_watts = [&](double temp_k) {
    const leakage::LeakageAnalyzer analyzer(nl, lib, temp_k);
    return analyzer.circuit_leakage(standby_vector) * params.supply_v *
           params.replication;
  };
  double temp = model.steady_state(params.dynamic_power_w);
  for (int it = 1; it <= params.max_iterations; ++it) {
    const double p_leak = leakage_watts(temp);
    const double next = model.steady_state(params.dynamic_power_w + p_leak);
    if (!std::isfinite(next) || next > params.runaway_temp_k) {
      return {next, p_leak, it, false};
    }
    if (std::abs(next - temp) < params.tolerance_k) {
      return {next, p_leak, it, true};
    }
    temp = next;
  }
  return {temp, leakage_watts(temp), params.max_iterations, false};
}

/// Serial electrothermal sweep: one whole-table fixpoint per power.
inline std::vector<thermal::OperatingPoint> reference_operating_points(
    const netlist::Netlist& nl, const tech::Library& lib,
    const thermal::RcThermalModel& model,
    const std::vector<bool>& standby_vector,
    const std::vector<double>& dynamic_powers,
    const thermal::ElectrothermalParams& params = {}) {
  std::vector<thermal::OperatingPoint> points;
  points.reserve(dynamic_powers.size());
  for (double p : dynamic_powers) {
    thermal::ElectrothermalParams cell = params;
    cell.dynamic_power_w = p;
    points.push_back(
        reference_operating_point(nl, lib, model, standby_vector, cell));
  }
  return points;
}

// ---------------------------------------------------------------------------
// Nested-bisection stack solve: one 60-step bisection per stacked OFF
// device, each trial of which re-solves the whole chain above it —
// 60^(k-1) device evaluations for k OFF devices.

namespace refstack_detail {

constexpr int kBisectIters = 60;

inline double off_device_current(const tech::DeviceParams& p,
                                 const tech::StackDevice& d, double vs,
                                 double vd, double temp_k) {
  const double vds = vd - vs;
  if (vds <= 0.0) return 0.0;
  return tech::subthreshold_current(p, d.width, -vs, vds, /*vsb=*/vs, temp_k,
                                    d.delta_vth);
}

inline double solve_chain(const tech::DeviceParams& p,
                          std::span<const tech::StackDevice> devs,
                          double v_bottom, double v_top, double temp_k,
                          std::vector<double>* nodes) {
  if (devs.size() == 1) {
    return off_device_current(p, devs[0], v_bottom, v_top, temp_k);
  }
  // Find the voltage of the node above devs[0] by current continuity.
  double lo = v_bottom, hi = v_top;
  double i_bottom = 0.0;
  std::vector<double> upper_nodes;
  for (int it = 0; it < kBisectIters; ++it) {
    const double mid = 0.5 * (lo + hi);
    i_bottom = off_device_current(p, devs[0], v_bottom, mid, temp_k);
    upper_nodes.clear();
    const double i_upper =
        solve_chain(p, devs.subspan(1), mid, v_top, temp_k, &upper_nodes);
    // i_bottom grows and i_upper shrinks as mid rises.
    if (i_bottom > i_upper) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  const double v_node = 0.5 * (lo + hi);
  if (nodes != nullptr) {
    nodes->push_back(v_node);
    nodes->insert(nodes->end(), upper_nodes.begin(), upper_nodes.end());
  }
  return off_device_current(p, devs[0], v_bottom, v_node, temp_k);
}

}  // namespace refstack_detail

/// The oracle for tech::solve_stack: same interface and ON-device collapse,
/// with the chain solved by nested bisection.
inline tech::StackSolution reference_solve_stack(
    const tech::DeviceParams& params,
    const std::vector<tech::StackDevice>& devices, double vout, double vdd,
    double temp_k) {
  if (devices.empty()) throw std::invalid_argument("solve_stack: empty stack");
  if (vout < 0.0 || vdd <= 0.0) {
    throw std::invalid_argument("solve_stack: negative rail voltage");
  }
  std::vector<tech::StackDevice> off;
  off.reserve(devices.size());
  for (const tech::StackDevice& d : devices) {
    if (!d.gate_on) off.push_back(d);
  }
  tech::StackSolution sol;
  if (off.empty()) return sol;
  sol.current = refstack_detail::solve_chain(params, off, 0.0, vout, temp_k,
                                             &sol.node_voltages);
  return sol;
}

// ---------------------------------------------------------------------------
// JSON numbers the C-library way, and the projection as a filter.

/// common::json::format_number (NonFinite::Literal) as snprintf writes it:
/// integral values below 2^53 as "%lld", else the first of "%.15g",
/// "%.16g" and "%.17g" that strtod reads back as the same double.
inline std::string reference_format_number(double d) {
  if (std::isnan(d)) return "NaN";
  if (std::isinf(d)) return d > 0.0 ? "Infinity" : "-Infinity";
  char buf[40];
  if (std::fabs(d) < 9007199254740992.0 && d == std::trunc(d)) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

/// analysis::fmt_g by its definition: the "%g" bytes when strtod reads
/// them back as \p d, else the text rows print.
inline std::string reference_fmt_g(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", d);
  return std::strtod(buf, nullptr) == d ? std::string(buf)
                                        : reference_format_number(d);
}

/// The double strtod reads from a JSON number token.
inline double reference_parse_number(std::string_view token) {
  const std::string copy(token);
  return std::strtod(copy.c_str(), nullptr);
}

/// A projected parse as a full parse followed by a filter: of an object,
/// only \p keep.member survives, and of that member (when it is an object
/// and the projection names members) only the named members, in document
/// order. A value of any other kind is kept whole.
inline common::json::Value reference_projection(
    const common::json::Value& full, const common::json::Projection& keep) {
  using common::json::Object;
  using common::json::Value;
  if (!full.is_object()) return full;
  Object out;
  for (const auto& [key, member] : full.as_object()) {
    if (key != keep.member) continue;
    if (keep.all || !member.is_object()) {
      out.emplace_back(key, member);
      continue;
    }
    Object inner;
    for (const auto& [name, v] : member.as_object()) {
      if (std::find(keep.names.begin(), keep.names.end(), name) !=
          keep.names.end()) {
        inner.emplace_back(name, v);
      }
    }
    out.emplace_back(key, Value(std::move(inner)));
  }
  return Value(std::move(out));
}

/// A sidecar line read the tree way: json::parse(), then the members of the
/// resulting object copied into the entry. Throws where
/// campaign::parse_entry() must: a line that is not an object, a known
/// member of the wrong kind, an extent outside the integers in [0, 2^53],
/// a non-number metric value, or a missing "h", "o" or "l". Unknown
/// members are skipped.
inline campaign::IndexEntry reference_parse_entry(std::string_view line) {
  using common::json::Value;
  const Value v = common::json::parse(line);
  const auto extent = [](const Value& x) {
    const double d = x.as_number();
    if (!(d >= 0.0 && d <= 9007199254740992.0) || d != std::floor(d)) {
      throw std::runtime_error("reference: bad extent");
    }
    return static_cast<std::uint64_t>(d);
  };
  campaign::IndexEntry e;
  bool hash = false, offset = false, length = false;
  for (const auto& [key, member] : v.as_object()) {
    if (key == "h") {
      e.hash = member.as_string();
      hash = true;
    } else if (key == "o") {
      e.offset = extent(member);
      offset = true;
    } else if (key == "l") {
      e.length = extent(member);
      length = true;
    } else if (key == "n") {
      e.netlist = member.as_string();
    } else if (key == "r") {
      e.ras = member.as_string();
    } else if (key == "ta") {
      e.t_active = member.as_number();
    } else if (key == "ts") {
      e.t_standby = member.as_number();
    } else if (key == "y") {
      e.years = member.as_number();
    } else if (key == "a") {
      e.analysis = member.as_string();
    } else if (key == "m") {
      for (const auto& [name, value] : member.as_object()) {
        e.metrics.emplace_back(name, value.as_number());
      }
    }
  }
  if (!hash || !offset || !length) {
    throw std::runtime_error("reference: entry lacks \"h\", \"o\" or \"l\"");
  }
  return e;
}

// ---------------------------------------------------------------------------
// Naive campaign-store query: full rescan, no index, no parallelism.

namespace refquery_detail {

using common::json::Value;

inline bool is_coord(std::string_view key) {
  return key == "netlist" || key == "ras" || key == "analysis" ||
         key == "hash" || key == "t_active" || key == "t_standby" ||
         key == "years";
}

/// The queryable member of a row: one of the seven coordinates at top
/// level, otherwise a metric. nullptr when absent.
inline const Value* row_member(const Value& row, const std::string& key) {
  if (is_coord(key)) return row.find(key);
  if (const Value* metrics = row.find("metrics")) return metrics->find(key);
  return nullptr;
}

inline bool predicate_holds(const Value& pred, const Value& v) {
  if (pred.is_string() || pred.is_number()) return v == pred;
  if (pred.is_array()) {
    for (const Value& cand : pred.as_array()) {
      if (v == cand) return true;
    }
    return false;
  }
  // {"min":..,"max":..}
  if (!v.is_number() || std::isnan(v.as_number())) return false;
  const double d = v.as_number();
  if (const Value* lo = pred.find("min")) {
    if (d < lo->as_number()) return false;
  }
  if (const Value* hi = pred.find("max")) {
    if (d > hi->as_number()) return false;
  }
  return true;
}

/// Canonical order key of one row, computed from the row itself.
inline bool row_less(const Value& a, const Value& b) {
  const auto str = [](const Value& row, const char* key) {
    const Value* v = row.find(key);
    return v != nullptr && v->is_string() ? v->as_string() : std::string();
  };
  const auto num = [](const Value& row, const char* key) {
    const Value* v = row.find(key);
    return v != nullptr && v->is_number()
               ? v->as_number()
               : std::numeric_limits<double>::quiet_NaN();
  };
  const auto cmp_num = [](double x, double y) {
    const bool nx = std::isnan(x), ny = std::isnan(y);
    if (nx || ny) return nx == ny ? 0 : (nx ? -1 : 1);
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  };
  for (const char* key : {"netlist", "ras"}) {
    if (int c = str(a, key).compare(str(b, key))) return c < 0;
  }
  for (const char* key : {"t_active", "t_standby", "years"}) {
    if (int c = cmp_num(num(a, key), num(b, key))) return c < 0;
  }
  if (int c = str(a, "analysis").compare(str(b, "analysis"))) return c < 0;
  return str(a, "hash") < str(b, "hash");
}

inline std::string render_cell(const Value* v) {
  if (v == nullptr || v->is_null()) return std::string();
  if (v->is_string()) return v->as_string();
  if (v->is_number()) return common::json::format_number(v->as_number());
  return common::json::dump(*v);
}

}  // namespace refquery_detail

/// Evaluates one query document against the store at \p store_path the
/// obvious way: loads *every* row through ShardedStore (any layout), parses
/// and filters them all, sorts canonically, and renders the same table the
/// optimized indexed path must produce.
inline report::Table reference_query(const std::string& store_path,
                                     const common::json::Value& qdoc) {
  namespace d = refquery_detail;
  using common::json::Value;

  campaign::ShardedStore store(store_path, 1);
  std::vector<const Value*> matched;
  for (const Value* row : store.all_rows()) {
    bool ok = true;
    if (const Value* where = qdoc.find("where")) {
      for (const auto& [key, pred] : where->as_object()) {
        const Value* v = d::row_member(*row, key);
        // Metric predicates apply to scalar metrics only — a structured
        // payload (or an absent member) never matches.
        if (!d::is_coord(key) && v != nullptr && !v->is_number()) v = nullptr;
        if (v == nullptr || !d::predicate_holds(pred, *v)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) matched.push_back(row);
  }
  std::sort(matched.begin(), matched.end(),
            [](const Value* a, const Value* b) { return d::row_less(*a, *b); });

  // Scalar metric names, first appearance in canonical row order.
  std::vector<std::string> metric_names;
  for (const Value* row : matched) {
    if (const Value* metrics = row->find("metrics")) {
      for (const auto& [name, v] : metrics->as_object()) {
        if (v.is_number() && std::find(metric_names.begin(),
                                       metric_names.end(),
                                       name) == metric_names.end()) {
          metric_names.push_back(name);
        }
      }
    }
  }

  report::Table table;
  const Value* agg = qdoc.find("agg");
  if (agg == nullptr) {
    std::vector<std::string> columns;
    if (const Value* select = qdoc.find("select")) {
      for (const Value& c : select->as_array()) columns.push_back(c.as_string());
    } else {
      columns = {"netlist", "ras",   "t_active",
                 "t_standby", "years", "analysis"};
      columns.insert(columns.end(), metric_names.begin(), metric_names.end());
    }
    table.headers = columns;
    for (const Value* row : matched) {
      std::vector<std::string> cells;
      for (const std::string& col : columns) {
        cells.push_back(d::render_cell(d::row_member(*row, col)));
      }
      table.add_row(std::move(cells));
    }
  } else {
    const std::string op = agg->at("op").as_string();
    std::vector<std::string> by;
    if (const Value* b = agg->find("by")) {
      for (const Value& c : b->as_array()) by.push_back(c.as_string());
    }
    std::vector<std::string> agg_metrics;
    if (op != "count") {
      if (const Value* ms = agg->find("metrics")) {
        for (const Value& m : ms->as_array()) {
          agg_metrics.push_back(m.as_string());
        }
      } else {
        agg_metrics = metric_names;
      }
    }
    table.headers = by;
    table.headers.push_back("count");
    for (const std::string& m : agg_metrics) table.headers.push_back(op + "_" + m);

    // Group in canonical row order, key = rendered by-tuple.
    std::vector<std::pair<std::vector<std::string>,
                          std::vector<const Value*>>> groups;
    for (const Value* row : matched) {
      std::vector<std::string> key;
      for (const std::string& col : by) {
        key.push_back(d::render_cell(d::row_member(*row, col)));
      }
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const auto& g) { return g.first == key; });
      if (it == groups.end()) {
        groups.emplace_back(std::move(key), std::vector<const Value*>{});
        it = std::prev(groups.end());
      }
      it->second.push_back(row);
    }
    for (auto& [key, rows] : groups) {
      std::vector<std::string> cells = key;
      cells.push_back(common::json::format_number(
          static_cast<double>(rows.size())));
      for (const std::string& mname : agg_metrics) {
        std::vector<double> values;
        for (const Value* row : rows) {
          const Value* v = d::row_member(*row, mname);
          if (v != nullptr && v->is_number() &&
              std::isfinite(v->as_number())) {
            values.push_back(v->as_number());
          }
        }
        if (values.empty()) {
          cells.emplace_back();
          continue;
        }
        double r = 0.0;
        if (op == "min") {
          r = *std::min_element(values.begin(), values.end());
        } else if (op == "max") {
          r = *std::max_element(values.begin(), values.end());
        } else if (op == "sum" || op == "mean") {
          for (double v : values) r += v;
          if (op == "mean") r /= static_cast<double>(values.size());
        } else {  // quantile
          std::sort(values.begin(), values.end());
          const double q = agg->number_or("q", 0.5);
          const double h = q * static_cast<double>(values.size() - 1);
          const std::size_t lo = static_cast<std::size_t>(h);
          const std::size_t hi = std::min(lo + 1, values.size() - 1);
          const double f = h - static_cast<double>(lo);
          r = values[lo] * (1.0 - f) + values[hi] * f;
        }
        cells.push_back(common::json::format_number(r));
      }
      table.add_row(std::move(cells));
    }
  }
  if (const Value* limit = qdoc.find("limit")) {
    const auto n = static_cast<std::size_t>(limit->as_number());
    if (table.rows.size() > n) table.rows.resize(n);
  }
  return table;
}

}  // namespace nbtisim::testsupport
