#include "aging/aging.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/pool.h"

namespace nbtisim::aging {

namespace {

// Gates handed to one work-pool index, both by the RdKernel sweeps and by
// build_stress's stress loop: large enough that the packed inner loop
// amortizes its setup, small enough to keep the parallel decomposition
// fine-grained.  Chunk boundaries do not affect results (each gate writes
// only its own slots).
constexpr int kGateChunk = 64;

int num_gate_chunks(const netlist::Netlist& nl) {
  return (nl.num_gates() + kGateChunk - 1) / kGateChunk;
}

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

/// Standby net values under each standby vector of \p policy (with its
/// forces): one set for Vector, one per member for Rotating, none for the
/// bounds.
std::vector<std::vector<bool>> standby_values(const netlist::Netlist& nl,
                                              const StandbyPolicy& policy) {
  std::vector<std::vector<bool>> values;
  if (policy.kind == StandbyPolicy::Kind::Vector) {
    if (static_cast<int>(policy.vector.size()) != nl.num_inputs()) {
      throw std::invalid_argument("StandbyPolicy vector: PI count mismatch");
    }
    values.push_back(
        sim::Simulator(nl).evaluate_forced(policy.vector, policy.forces));
  } else if (policy.kind == StandbyPolicy::Kind::Rotating) {
    if (policy.rotation.empty()) {
      throw std::invalid_argument("StandbyPolicy rotating: no vectors");
    }
    const sim::Simulator simulator(nl);
    for (const std::vector<bool>& v : policy.rotation) {
      if (static_cast<int>(v.size()) != nl.num_inputs()) {
        throw std::invalid_argument("StandbyPolicy rotating: PI count mismatch");
      }
      values.push_back(simulator.evaluate_forced(v, policy.forces));
    }
  }
  return values;
}

/// Standby values of gate \p g's cell signals (pins, then stage outputs)
/// under the standby net values \p values: what each device's gate sees.
std::vector<bool> cell_standby_signals(const netlist::Gate& g,
                                       const tech::Cell& cell,
                                       const std::vector<bool>& values) {
  std::uint32_t bits = 0;
  for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
    bits |= values[g.fanins[pin]] ? (1u << pin) : 0u;
  }
  return cell.signal_values(bits);
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
      fresh_delays_(sta_.gate_delays(cond_.schedule.temp_active, {},
                                     cond_.gate_vth_offsets)) {
  if (!cond_.gate_vth_offsets.empty() &&
      static_cast<int>(cond_.gate_vth_offsets.size()) != nl.num_gates()) {
    throw std::invalid_argument(
        "AgingAnalyzer: gate_vth_offsets size mismatch");
  }
  fresh_critical_delay_ = sta_.analyze(fresh_delays_).max_delay;
}

AgingAnalyzer::StressSet AgingAnalyzer::build_stress(
    const StandbyPolicy& policy, tech::Channel channel) const {
  const std::vector<std::vector<bool>> standby = standby_values(*nl_, policy);

  // The gate signal value that stresses a device of this channel: 0 for a
  // PMOS (Vgs = -Vdd), 1 for an NMOS (Vgs = +Vdd).
  const bool stress_value = channel == tech::Channel::Nmos;
  const tech::LibraryParams& lp = lib_->params();
  const double vth0 =
      channel == tech::Channel::Pmos ? lp.pmos.vth0 : lp.nmos.vth0;

  StressSet set;
  set.gate_begin.resize(nl_->num_gates() + 1, 0);
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    const tech::Cell& cell = lib_->cell(sta_.gate_cell(gi));
    set.gate_begin[gi + 1] =
        set.gate_begin[gi] + static_cast<int>(cell.pmos_devices().size());
  }
  std::vector<nbti::DeviceStress> stresses(set.gate_begin.back());

  const nbti::DeviceAging model(cond_.rd);
  common::parallel_for(num_gate_chunks(*nl_), [&](int c) {
    const int g_lo = c * kGateChunk;
    const int g_hi = std::min(nl_->num_gates(), g_lo + kGateChunk);
    for (int gi = g_lo; gi < g_hi; ++gi) {
      const netlist::Gate& g = nl_->gate(gi);
      const tech::Cell& cell = lib_->cell(sta_.gate_cell(gi));

      // Active-mode signal probabilities of the cell's internal signals.
      std::vector<double> pin_sp;
      pin_sp.reserve(g.fanins.size());
      for (netlist::NodeId in : g.fanins) {
        pin_sp.push_back(stats_.probability[in]);
      }
      const std::vector<double> sp = cell.signal_probabilities(pin_sp);

      // Standby-mode values of the cell's internal signals, one per standby
      // vector (empty for the bounding policies).
      std::vector<std::vector<bool>> standby_sig;
      for (const std::vector<bool>& values : standby) {
        standby_sig.push_back(cell_standby_signals(g, cell, values));
      }

      // One device per stage input in either channel: pmos_devices() lists
      // the stage inputs, and gate_signal is the input's signal.
      int slot = set.gate_begin[gi];
      for (const tech::PmosDevice& dev : cell.pmos_devices()) {
        const int sig = dev.gate_signal;
        nbti::DeviceStress& stress = stresses[slot++];
        stress.active_stress_prob = stress_value ? sp[sig] : 1.0 - sp[sig];
        stress.vgs = lp.vdd;
        stress.vth0 = vth0 + (cond_.gate_vth_offsets.empty()
                                  ? 0.0
                                  : cond_.gate_vth_offsets[gi]);
        switch (policy.kind) {
          case StandbyPolicy::Kind::AllStressed:
          case StandbyPolicy::Kind::AllRelaxed: {
            const bool standby_value =
                policy.kind == StandbyPolicy::Kind::AllRelaxed;
            stress.standby = standby_value == stress_value
                                 ? nbti::StandbyMode::Stressed
                                 : nbti::StandbyMode::Relaxed;
            break;
          }
          case StandbyPolicy::Kind::Vector:
          case StandbyPolicy::Kind::Rotating: {
            int stressed = 0;
            for (const std::vector<bool>& values : standby_sig) {
              stressed += values[sig] == stress_value ? 1 : 0;
            }
            stress.standby_stress_fraction =
                static_cast<double>(stressed) / standby_sig.size();
            break;
          }
        }
      }
    }
  });
  // All of the set's contexts in one batch, which computes one S_n prefix
  // per distinct duty: signal probabilities repeat across the whole
  // circuit, not within a gate chunk.
  std::vector<nbti::DeviceAging::StressContext> contexts(stresses.size());
  model.make_contexts(stresses, cond_.schedule, contexts);
  set.kernel = nbti::RdKernel(model, std::move(contexts));
  return set;
}

const AgingAnalyzer::StressSet& AgingAnalyzer::stress_descriptors(
    const StandbyPolicy& policy) const {
  StressDescriptors* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    for (const auto& e : stress_cache_) {
      if (e->policy == policy) {
        entry = e.get();
        break;
      }
    }
    if (!entry) {
      stress_cache_.push_back(std::make_unique<StressDescriptors>());
      entry = stress_cache_.back().get();
      entry->policy = policy;
    }
  }
  // Built outside the cache lock, once per entry: a concurrent miss on the
  // same policy waits here for the build in flight, while other policies
  // build in parallel.  A throwing build leaves the flag unset, so the next
  // caller retries (std::call_once semantics).
  std::call_once(entry->built, [&] {
    stress_builds_.fetch_add(1, std::memory_order_relaxed);
    entry->pmos = build_stress(policy, tech::Channel::Pmos);
  });
  return entry->pmos;
}

std::vector<double> AgingAnalyzer::worst_per_gate(const StressSet& set,
                                                  double total_time) const {
  return worst_per_gate(set, total_time, nullptr, nullptr);
}

std::vector<double> AgingAnalyzer::worst_per_gate(
    const StressSet& set, double total_time, const StressSet* relaxed,
    const std::vector<bool>* standby) const {
  // Embarrassingly parallel over gate chunks wide enough for the kernel's
  // packed inner loop; each gate writes only its own slot, so the result is
  // identical for every thread count and chunk size.  Chunks own disjoint
  // device ranges, so they can share the device-wide work buffers —
  // thread-local so horizon sweeps (degradation series, crossing-time
  // grids) pay no per-call allocation.  Each calling thread owns its set;
  // pool workers only write the disjoint slices they are handed.
  std::vector<double> dvth(nl_->num_gates(), 0.0);
  static thread_local std::vector<double> dev_out;
  static thread_local std::vector<double> dev_relaxed;
  static thread_local std::vector<double> dev_scratch;
  const std::size_t n_devices = set.kernel.num_devices();
  if (dev_out.size() < n_devices) {
    dev_out.resize(n_devices);
    dev_relaxed.resize(n_devices);
    dev_scratch.resize(n_devices);
  }
  // Lambdas do not capture thread_locals — a pool worker would see its own
  // (empty) instances — so hand the workers spans bound on this thread.
  const std::span<double> out(dev_out);
  const std::span<double> alt(dev_relaxed);
  const std::span<double> scratch(dev_scratch);
  common::parallel_for(num_gate_chunks(*nl_), [&](int c) {
    const int g_lo = c * kGateChunk;
    const int g_hi = std::min(nl_->num_gates(), g_lo + kGateChunk);
    const int d_lo = set.gate_begin[g_lo];
    const int d_hi = set.gate_begin[g_hi];
    set.kernel.delta_vth(total_time, d_lo, d_hi, out, scratch);
    if (relaxed != nullptr) {
      // A PMOS whose gate signal the standby vector holds at 1 recovers
      // through standby: its context is the AllRelaxed one.
      relaxed->kernel.delta_vth(total_time, d_lo, d_hi, alt, scratch);
      for (int gi = g_lo; gi < g_hi; ++gi) {
        const tech::Cell& cell = lib_->cell(sta_.gate_cell(gi));
        const std::vector<bool> sig =
            cell_standby_signals(nl_->gate(gi), cell, *standby);
        int slot = set.gate_begin[gi];
        for (const tech::PmosDevice& dev : cell.pmos_devices()) {
          if (sig[dev.gate_signal]) out[slot] = alt[slot];
          ++slot;
        }
      }
    }
    for (int gi = g_lo; gi < g_hi; ++gi) {
      double worst = 0.0;
      for (int i = set.gate_begin[gi]; i < set.gate_begin[gi + 1]; ++i) {
        worst = std::max(worst, out[i]);
      }
      dvth[gi] = worst;
    }
  });
  return dvth;
}

std::vector<double> AgingAnalyzer::gate_dvth(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  const double t = total_time.value_or(cond_.total_time);
  if (policy.kind != StandbyPolicy::Kind::Vector) {
    return worst_per_gate(stress_descriptors(policy), t);
  }
  // A vector's standby fraction is exactly 1 or 0 per PMOS, so every device
  // context is bitwise the AllStressed or the AllRelaxed one: select, per
  // device, between the two cached bounds instead of building.
  const std::vector<bool> standby =
      std::move(standby_values(*nl_, policy).front());
  const StressSet& stressed = stress_descriptors(StandbyPolicy::all_stressed());
  const StressSet& relaxed = stress_descriptors(StandbyPolicy::all_relaxed());
  return worst_per_gate(stressed, t, &relaxed, &standby);
}

std::vector<double> AgingAnalyzer::aged_gate_delays(
    std::span<const double> dvth) const {
  if (static_cast<int>(dvth.size()) != nl_->num_gates()) {
    throw std::invalid_argument("aged_gate_delays: dvth size mismatch");
  }
  if (!cond_.taylor_delay) {
    return sta_.gate_delays(cond_.schedule.temp_active, dvth,
                            cond_.gate_vth_offsets);
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

DegradationReport AgingAnalyzer::analyze(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  DegradationReport rep;
  rep.gate_dvth = gate_dvth(policy, total_time);
  rep.fresh_delay = fresh_critical_delay_;
  std::vector<double> arrival_scratch;
  rep.aged_delay =
      sta_.critical_delay(aged_gate_delays(rep.gate_dvth), arrival_scratch);
  return rep;
}

std::vector<std::pair<double, double>> AgingAnalyzer::degradation_series(
    const StandbyPolicy& policy, double t_min, double t_max,
    int n_points) const {
  // Written so NaN and an infinite t_max fail too.
  if (n_points < 2 ||
      !(t_min > 0.0 && t_max > t_min && std::isfinite(t_max))) {
    throw std::invalid_argument("degradation_series: bad sampling spec");
  }
  std::vector<std::pair<double, double>> series;
  series.reserve(n_points);
  const double log_step = std::log(t_max / t_min) / (n_points - 1);
  // The first point builds (and caches) the stress descriptors the policy
  // reads (a vector's are the two bounds); every further horizon reuses them.
  for (int i = 0; i < n_points; ++i) {
    const double t = t_min * std::exp(log_step * i);
    series.emplace_back(t, analyze(policy, t).percent());
  }
  return series;
}

}  // namespace nbtisim::aging
