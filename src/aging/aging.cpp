#include "aging/aging.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/pool.h"

namespace nbtisim::aging {

namespace {

// Bound on cached per-policy descriptor sets; oldest entries are evicted
// first. Sweeps that visit many distinct policies (IVC candidate search)
// stay within this working set because they revisit each candidate rarely.
constexpr std::size_t kMaxCachedPolicies = 16;

// Bound on cached dVth(t) tables (policy x range x resolution keys).
constexpr std::size_t kMaxCachedTables = 8;

// Gates handed to one RdKernel sweep per work-pool index: large enough that
// the packed inner loop amortizes its setup, small enough to keep the
// parallel decomposition fine-grained.  Chunk boundaries do not affect
// results (each gate writes only its own slot).
constexpr int kKernelGateChunk = 64;

std::vector<double> resolve_input_sp(const netlist::Netlist& nl,
                                     const AgingConditions& cond) {
  if (cond.input_sp.empty()) {
    return std::vector<double>(nl.num_inputs(), 0.5);
  }
  if (static_cast<int>(cond.input_sp.size()) != nl.num_inputs()) {
    throw std::invalid_argument("AgingAnalyzer: input_sp size mismatch");
  }
  return cond.input_sp;
}

}  // namespace

StandbyPolicy StandbyPolicy::rotating(std::vector<std::vector<bool>> vectors) {
  if (vectors.empty()) {
    throw std::invalid_argument("StandbyPolicy::rotating: no vectors");
  }
  StandbyPolicy p;
  p.kind = Kind::Rotating;
  p.rotation = std::move(vectors);
  return p;
}

AgingAnalyzer::AgingAnalyzer(const netlist::Netlist& nl,
                             const tech::Library& lib, AgingConditions cond)
    : nl_(&nl), lib_(&lib), cond_(std::move(cond)), sta_(nl, lib),
      stats_(sim::estimate_signal_stats(nl, resolve_input_sp(nl, cond_),
                                        cond_.sp_vectors, cond_.seed)),
      fresh_delays_(sta_.gate_delays(cond_.sta_temperature, {},
                                     cond_.gate_vth_offsets)) {
  if (!cond_.gate_vth_offsets.empty() &&
      static_cast<int>(cond_.gate_vth_offsets.size()) != nl.num_gates()) {
    throw std::invalid_argument(
        "AgingAnalyzer: gate_vth_offsets size mismatch");
  }
  if (!cond_.gate_delay_scale.empty()) {
    if (static_cast<int>(cond_.gate_delay_scale.size()) != nl.num_gates()) {
      throw std::invalid_argument(
          "AgingAnalyzer: gate_delay_scale size mismatch");
    }
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      if (cond_.gate_delay_scale[gi] < 1.0) {
        throw std::invalid_argument(
            "AgingAnalyzer: gate delay scale below 1");
      }
      fresh_delays_[gi] *= cond_.gate_delay_scale[gi];
    }
  }
  fresh_critical_delay_ = sta_.analyze(fresh_delays_).max_delay;
}

std::shared_ptr<const AgingAnalyzer::StressDescriptors>
AgingAnalyzer::stress_descriptors(const StandbyPolicy& policy) const {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    for (const auto& entry : stress_cache_) {
      if (entry->policy == policy) return entry;
    }
  }

  // Build phase — everything that does not depend on the evaluation
  // horizon: standby-vector simulation, signal-probability propagation
  // through each cell, and the per-PMOS stress descriptors.
  stress_builds_.fetch_add(1, std::memory_order_relaxed);
  const double vdd = lib_->params().vdd;

  // Standby net values (Vector policy: one set; Rotating: one per member).
  std::vector<std::vector<bool>> standby_values;
  if (policy.kind == StandbyPolicy::Kind::Vector) {
    if (static_cast<int>(policy.vector.size()) != nl_->num_inputs()) {
      throw std::invalid_argument("StandbyPolicy vector: PI count mismatch");
    }
    standby_values.push_back(
        sim::Simulator(*nl_).evaluate_forced(policy.vector, policy.forces));
  } else if (policy.kind == StandbyPolicy::Kind::Rotating) {
    if (policy.rotation.empty()) {
      throw std::invalid_argument("StandbyPolicy rotating: no vectors");
    }
    const sim::Simulator simulator(*nl_);
    for (const std::vector<bool>& v : policy.rotation) {
      if (static_cast<int>(v.size()) != nl_->num_inputs()) {
        throw std::invalid_argument("StandbyPolicy rotating: PI count mismatch");
      }
      standby_values.push_back(simulator.evaluate_forced(v, policy.forces));
    }
  }

  auto desc = std::make_shared<StressDescriptors>();
  desc->policy = policy;
  desc->gate_begin.resize(nl_->num_gates() + 1, 0);
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    const tech::Cell& cell = lib_->cell(sta_.gate_cell(gi));
    desc->gate_begin[gi + 1] =
        desc->gate_begin[gi] + static_cast<int>(cell.pmos_devices().size());
  }
  std::vector<nbti::DeviceAging::StressContext> contexts(
      desc->gate_begin.back());

  const nbti::DeviceAging model(cond_.rd, cond_.method);
  common::parallel_for(nl_->num_gates(), [&](int gi) {
    const netlist::Gate& g = nl_->gate(gi);
    const tech::Cell& cell = lib_->cell(sta_.gate_cell(gi));

    // Active-mode signal probabilities of the cell's internal signals.
    std::vector<double> pin_sp;
    pin_sp.reserve(g.fanins.size());
    for (netlist::NodeId in : g.fanins) pin_sp.push_back(stats_.probability[in]);
    const std::vector<double> sp = cell.signal_probabilities(pin_sp);

    // Standby-mode values of the cell's internal signals, one per standby
    // vector (empty for the bounding policies).
    std::vector<std::vector<bool>> standby_sig;
    for (const std::vector<bool>& values : standby_values) {
      std::uint32_t bits = 0;
      for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
        bits |= values[g.fanins[pin]] ? (1u << pin) : 0u;
      }
      standby_sig.push_back(cell.signal_values(bits));
    }

    int slot = desc->gate_begin[gi];
    for (const tech::PmosDevice& pm : cell.pmos_devices()) {
      nbti::DeviceStress stress;
      stress.active_stress_prob = 1.0 - sp[pm.gate_signal];
      stress.vgs = vdd;
      stress.vth0 = lib_->params().pmos.vth0 +
                    (cond_.gate_vth_offsets.empty()
                         ? 0.0
                         : cond_.gate_vth_offsets[gi]);
      switch (policy.kind) {
        case StandbyPolicy::Kind::AllStressed:
          stress.standby = nbti::StandbyMode::Stressed;
          break;
        case StandbyPolicy::Kind::AllRelaxed:
          stress.standby = nbti::StandbyMode::Relaxed;
          break;
        case StandbyPolicy::Kind::Vector:
        case StandbyPolicy::Kind::Rotating: {
          int stressed = 0;
          for (const std::vector<bool>& sig : standby_sig) {
            stressed += sig[pm.gate_signal] ? 0 : 1;
          }
          stress.standby_stress_fraction =
              static_cast<double>(stressed) / standby_sig.size();
          break;
        }
      }
      contexts[slot] = model.make_context(stress, cond_.schedule);
      ++slot;
    }
  });
  desc->kernel = nbti::RdKernel(model, std::move(contexts));

  std::lock_guard<std::mutex> lock(cache_mutex_);
  // Another thread may have built the same policy concurrently; reuse its
  // entry so callers share one descriptor set.
  for (const auto& entry : stress_cache_) {
    if (entry->policy == policy) return entry;
  }
  if (stress_cache_.size() >= kMaxCachedPolicies) {
    stress_cache_.erase(stress_cache_.begin());
  }
  stress_cache_.push_back(desc);
  return desc;
}

void AgingAnalyzer::invalidate_stress_cache() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  stress_cache_.clear();
  table_cache_.clear();
}

std::shared_ptr<const nbti::DvthTable> AgingAnalyzer::dvth_table(
    const StandbyPolicy& policy, double t_lo, double t_hi,
    int points_per_decade) const {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    for (const TableEntry& e : table_cache_) {
      if (e.t_lo == t_lo && e.t_hi == t_hi &&
          e.points_per_decade == points_per_decade && e.policy == policy) {
        return e.table;
      }
    }
  }

  const std::vector<double> times =
      nbti::DvthTable::geometric_grid(t_lo, t_hi, points_per_decade);
  std::vector<std::vector<double>> rows(times.size());
  for (std::size_t k = 0; k < times.size(); ++k) {
    rows[k] = gate_dvth(policy, times[k]);
  }
  auto table =
      std::make_shared<const nbti::DvthTable>(times, rows);

  std::lock_guard<std::mutex> lock(cache_mutex_);
  for (const TableEntry& e : table_cache_) {
    if (e.t_lo == t_lo && e.t_hi == t_hi &&
        e.points_per_decade == points_per_decade && e.policy == policy) {
      return e.table;  // concurrent build won the race; share its entry
    }
  }
  if (table_cache_.size() >= kMaxCachedTables) {
    table_cache_.erase(table_cache_.begin());
  }
  table_cache_.push_back({policy, t_lo, t_hi, points_per_decade, table});
  return table;
}

std::vector<double> AgingAnalyzer::gate_dvth(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  const double horizon = total_time.value_or(cond_.total_time);
  const std::shared_ptr<const StressDescriptors> desc =
      stress_descriptors(policy);

  // Evaluation phase: embarrassingly parallel over gate chunks wide enough
  // for the kernel's packed inner loop; each gate writes only its own slot,
  // so the result is identical for every thread count and chunk size.
  // Chunks own disjoint device ranges, so they can share the two
  // device-wide work buffers — thread-local so horizon sweeps (degradation
  // series, table builds, crossing-time scans) pay no per-call allocation.
  // Each calling thread owns its pair; pool workers only write the
  // disjoint slices they are handed.
  std::vector<double> dvth(nl_->num_gates(), 0.0);
  static thread_local std::vector<double> dev_out;
  static thread_local std::vector<double> dev_scratch;
  const std::size_t n_devices = desc->kernel.num_devices();
  if (dev_out.size() < n_devices) {
    dev_out.resize(n_devices);
    dev_scratch.resize(n_devices);
  }
  // Lambdas do not capture thread_locals — a pool worker would see its own
  // (empty) instances — so hand the workers spans bound on this thread.
  const std::span<double> dev_span(dev_out);
  const std::span<double> scratch_span(dev_scratch);
  const int n_chunks =
      (nl_->num_gates() + kKernelGateChunk - 1) / kKernelGateChunk;
  common::parallel_for(n_chunks, [&](int c) {
    const int g_lo = c * kKernelGateChunk;
    const int g_hi = std::min(nl_->num_gates(), g_lo + kKernelGateChunk);
    desc->kernel.worst_per_gate(horizon, desc->gate_begin, g_lo, g_hi, dvth,
                                dev_span, scratch_span);
  });
  return dvth;
}

std::vector<double> AgingAnalyzer::aged_gate_delays(
    std::span<const double> dvth) const {
  if (static_cast<int>(dvth.size()) != nl_->num_gates()) {
    throw std::invalid_argument("aged_gate_delays: dvth size mismatch");
  }
  if (!cond_.taylor_delay) {
    std::vector<double> delays = sta_.gate_delays(cond_.sta_temperature, dvth,
                                                  cond_.gate_vth_offsets);
    if (!cond_.gate_delay_scale.empty()) {
      for (int gi = 0; gi < nl_->num_gates(); ++gi) {
        delays[gi] *= cond_.gate_delay_scale[gi];
      }
    }
    return delays;
  }
  std::vector<double> delays(fresh_delays_);
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    const double offset =
        cond_.gate_vth_offsets.empty() ? 0.0 : cond_.gate_vth_offsets[gi];
    delays[gi] *=
        taylor_delay_factor(lib_->params(), dvth[gi], offset, *nl_, gi);
  }
  return delays;
}

double taylor_delay_factor(const tech::LibraryParams& lp, double dvth,
                           double vth_offset, const netlist::Netlist& nl,
                           int gi) {
  const double overdrive = lp.vdd - lp.pmos.vth0 - vth_offset;
  if (!std::isfinite(dvth) || dvth >= overdrive) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "dVth %g V is not below Vdd - Vth0 - offset = %g V", dvth,
                  overdrive);
    throw std::domain_error("gate " + nl.node_name(nl.gate(gi).output) +
                            ": " + buf +
                            " (device cannot switch; the first-order delay "
                            "law does not apply)");
  }
  return 1.0 + lp.pmos.alpha * dvth / overdrive;
}

double AgingAnalyzer::aged_critical_delay(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  // critical_delay skips the arrival copy / predecessor bookkeeping /
  // path walk that analyze() pays — this is the hot query of the Pareto,
  // sleep-transistor and lifetime sweeps, which never read the path.
  std::vector<double> arrival_scratch;
  return sta_.critical_delay(aged_gate_delays(gate_dvth(policy, total_time)),
                             arrival_scratch);
}

DegradationReport AgingAnalyzer::analyze(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  DegradationReport rep;
  rep.gate_dvth = gate_dvth(policy, total_time);
  rep.fresh_delay = fresh_critical_delay_;
  rep.aged_delay = sta_.analyze(aged_gate_delays(rep.gate_dvth)).max_delay;
  return rep;
}

DegradationReport AgingAnalyzer::analyze_slew_aware(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  const sta::SlewStaEngine slew(*nl_, *lib_);
  DegradationReport rep;
  rep.gate_dvth = gate_dvth(policy, total_time);
  rep.fresh_delay =
      slew.analyze(cond_.sta_temperature, {}, cond_.gate_vth_offsets)
          .max_delay;
  rep.aged_delay = slew.analyze(cond_.sta_temperature, rep.gate_dvth,
                                cond_.gate_vth_offsets)
                       .max_delay;
  return rep;
}

std::vector<std::pair<double, double>> AgingAnalyzer::degradation_series(
    const StandbyPolicy& policy, double t_min, double t_max,
    int n_points) const {
  if (n_points < 2 || t_min <= 0.0 || t_max <= t_min) {
    throw std::invalid_argument("degradation_series: bad sampling spec");
  }
  std::vector<std::pair<double, double>> series;
  series.reserve(n_points);
  const double log_step = std::log(t_max / t_min) / (n_points - 1);
  // The first aged_critical_delay call builds (and caches) the policy's
  // stress descriptors; every further horizon reuses them, and the fresh
  // baseline is the precomputed fresh_critical_delay().
  const double fresh = fresh_critical_delay_;
  for (int i = 0; i < n_points; ++i) {
    const double t = t_min * std::exp(log_step * i);
    const double aged = aged_critical_delay(policy, t);
    series.emplace_back(t,
                        fresh > 0.0 ? 100.0 * (aged - fresh) / fresh : 0.0);
  }
  return series;
}

}  // namespace nbtisim::aging
