/// \file context.h
/// \brief Shared per-(netlist, condition) evaluation state for analyses.
///
/// Every analysis consumes the same expensive intermediates: the loaded
/// netlist, its signal statistics and stress-descriptor caches (inside the
/// AgingAnalyzer), the STA engine, and the standby-temperature leakage
/// tables. A ContextPool owns them once per campaign, keyed by grid cell;
/// an EvalContext is the cheap per-task handle that lazily resolves them,
/// so tasks sharing a cell pay the build cost once no matter how many
/// analysis kinds run on it.
///
/// Cache fills serialize *per key*, not across keys: the pool mutex only
/// guards the slot map, and each slot's (expensive, deterministic) build
/// runs under its own std::call_once — two tasks needing different
/// analyzers build them concurrently, while two tasks sharing a cell still
/// build once. Builds carry no thread knob: they run at the building
/// thread's common::ThreadBudget — serially inside a scheduler worker (a
/// pool task never spawns a nested team), at the campaign's width on the
/// caller. Every inner engine is bit-identical for any thread count
/// anyway, so this is purely a scheduling choice.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aging/aging.h"
#include "analysis/analysis.h"
#include "leakage/leakage.h"
#include "netlist/netlist.h"
#include "tech/library.h"

namespace nbtisim::analysis {

/// Loads a netlist from a grid netlist-spec string: a built-in ISCAS85
/// name, a .bench / .v path, or a generator form —
/// "dag:<inputs>x<gates>@<seed>", "mult:<bits>", "alu:<width>".
/// \throws std::invalid_argument / std::runtime_error on bad specs or files
netlist::Netlist load_netlist_spec(const std::string& spec, bool cut_dffs);

class EvalContext;

/// Owns the per-campaign caches; hands out EvalContext handles.
class ContextPool {
 public:
  explicit ContextPool(Params params, bool cut_dffs = false)
      : params_(std::move(params)), cut_dffs_(cut_dffs) {}

  /// A handle for one grid cell; resolves lazily against this pool.
  EvalContext context(const std::string& netlist_spec, const Condition& cond);

  const Params& params() const { return params_; }
  const tech::Library& library() const { return lib_; }

 private:
  friend class EvalContext;

  const netlist::Netlist& netlist_for(const std::string& nl_spec);
  const aging::AgingAnalyzer& analyzer_for(const std::string& nl_spec,
                                           const Condition& cond);
  const leakage::LeakageAnalyzer& leakage_for(const std::string& nl_spec,
                                              const Condition& cond);

  /// One cached entry: the build runs under the slot's own once_flag, so
  /// distinct keys never serialize on the pool mutex while building.
  template <typename T>
  struct Slot {
    std::once_flag once;
    std::shared_ptr<T> value;
  };
  template <typename T>
  using SlotMap = std::map<std::string, std::shared_ptr<Slot<T>>>;

  Params params_;
  bool cut_dffs_;
  tech::Library lib_;
  std::mutex mutex_;  ///< guards the slot maps only, never a build
  SlotMap<netlist::Netlist> netlists_;
  SlotMap<aging::AgingAnalyzer> analyzers_;
  SlotMap<leakage::LeakageAnalyzer> leakages_;
};

/// The per-task view an Analysis::run receives: grid coordinates plus lazy
/// accessors into the pool's caches. Cheap to copy; safe to use from the
/// task's worker thread (the pool serializes cache fills internally).
class EvalContext {
 public:
  const Condition& condition() const { return cond_; }
  const Params& params() const { return pool_->params(); }
  const tech::Library& library() const { return pool_->library(); }

  /// The loaded netlist (cached per netlist spec).
  const netlist::Netlist& netlist() { return pool_->netlist_for(spec_); }

  /// The aging analyzer for this cell (cached per netlist × condition):
  /// signal stats, STA engine and per-policy stress descriptors live here.
  const aging::AgingAnalyzer& aging() {
    return pool_->analyzer_for(spec_, cond_);
  }

  /// The conditions aging() is built with: the condition's schedule and
  /// horizon plus the shared sp_vectors/seed knobs. For techniques that
  /// build their own analyzers (dual-Vth, control-point insertion).
  aging::AgingConditions aging_conditions() const;

  /// Leakage analyzer at the condition's standby temperature (cached per
  /// netlist × T_standby).
  const leakage::LeakageAnalyzer& standby_leakage() {
    return pool_->leakage_for(spec_, cond_);
  }

  /// The condition's lifetime horizon [s].
  double horizon() const;

 private:
  friend class ContextPool;
  EvalContext(ContextPool* pool, std::string spec, Condition cond)
      : pool_(pool), spec_(std::move(spec)), cond_(cond) {}

  ContextPool* pool_;
  std::string spec_;
  Condition cond_;
};

/// The standby input vector Params::standby names: all-0 ("" or "zeros"),
/// all-1 ("ones"), or the first vector of the MLV set at the cell's
/// standby temperature ("mlv").
/// \throws std::invalid_argument naming "standby" for "stressed" and
///         "relaxed", which are policies rather than vectors
std::vector<bool> standby_vector(EvalContext& ctx, const std::string& standby);

/// The standby policy Params::standby names: all stressed ("" or
/// "stressed"), all relaxed ("relaxed"), or the standby_vector() otherwise.
aging::StandbyPolicy standby_policy(EvalContext& ctx,
                                    const std::string& standby);

}  // namespace nbtisim::analysis
