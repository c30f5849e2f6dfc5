/// \file analysis.h
/// \brief The analysis registry: every paper technique as a uniform,
///        campaign-sweepable grid analysis.
///
/// The paper's evaluation is one big grid — benchmarks × (RAS, T_active,
/// T_standby) × technique — and related mitigation studies (OptGM-style
/// comparisons, multiplier hardening under NBTI + process variation) evaluate
/// techniques side-by-side under identical conditions. This layer gives that
/// grid a single extension point: an `Analysis` is a name, the Params keys it
/// reads, and a run function mapping one `EvalContext` (the shared
/// per-(netlist, condition) cached state) to a flat metric list. The
/// `AnalysisRegistry` is one sorted constant table of them (registry.cpp).
///
/// Adding a technique is one run function and one table row — the campaign
/// grid, task hashing, the CLI verb and its flag check, and the summarize
/// columns all pick it up without touching the engine. A knob it needs is
/// one Params field plus one row of param_keys(), which holds the knob's
/// name, range and task-key tag.
///
/// Hashing contract: a task key carries exactly the keys an analysis's
/// `reads` lists (Analysis::fingerprint), so a campaign store row is
/// invalidated when — and only when — a parameter that could change its
/// result changes. `reads` must therefore name every Params field `run`
/// consumes, directly or through the context. Shared pipeline knobs
/// (sp_vectors, seed) feed the AgingAnalyzer and appear in every analysis
/// that uses one; technique knobs (e.g. sizing_step) only in their
/// technique's.
///
/// Determinism contract: run must be bit-identical for every scheduler
/// thread count. Analyses carry no thread knob: inner engines run at the
/// calling thread's common::ThreadBudget, which the campaign opens, and
/// serially when the task already executes on a pool worker (see
/// common/pool.h). Every inner engine is itself bit-identical for any
/// thread count, so this holds by construction; registry iteration (the
/// sorted table) and metric order (fixed per analysis) are deterministic
/// too.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/json.h"

namespace nbtisim::analysis {

/// One operating scenario: stress schedule + lifetime horizon.
struct Condition {
  double ras_active = 1.0;
  double ras_standby = 9.0;
  double t_active = 400.0;   ///< [K]
  double t_standby = 330.0;  ///< [K]
  double years = 10.0;

  /// Stable human-readable form, e.g. "ras1:9,ta400,ts330,y10" — part of
  /// every task key.
  std::string label() const;
};

/// Engine knobs shared by every task of a campaign. Each analysis hashes
/// only the fields it reads (see Analysis::reads); every field has one row
/// in param_keys().
struct Params {
  // Shared pipeline knobs — consumed through the AgingAnalyzer's
  // signal-statistics pass by every analysis that builds one.
  int sp_vectors = 1024;      ///< active-mode Monte-Carlo vectors
  std::uint64_t seed = 7;
  // lifetime
  int samples = 100;          ///< lifetime Monte-Carlo samples
  double spec_margin = 5.0;   ///< lifetime failure margin [%]
  // ivc
  int population = 32;        ///< MLV search population
  int max_rounds = 8;         ///< MLV search rounds
  // st
  double st_sigma = 0.05;     ///< sleep-transistor time-0 penalty budget
  // sizing
  double sizing_margin = 3.0; ///< aged-delay spec margin over fresh [%]
  double sizing_step = 0.5;   ///< multiplicative step added per move
  double sizing_max_size = 4.0;  ///< per-gate size cap
  int sizing_max_moves = 600;    ///< greedy iteration cap
  // derate
  std::vector<double> derate_years = {1.0, 2.0, 3.0, 5.0, 7.0, 10.0};
  // pareto
  int pareto_samples = 64;    ///< initial random standby vectors
  int pareto_rounds = 3;      ///< bit-flip local-search rounds
  int pareto_flips = 8;       ///< flips tried per front member
  // criticality
  int crit_samples = 300;     ///< criticality Monte-Carlo samples
  double crit_sigma = 0.015;  ///< per-gate Vth variation [V]
  // multi + failure (shared wear-out knobs)
  double clock_ghz = 1.0;     ///< HCI / EM switching clock [GHz]
  double pbti_ratio = 0.35;   ///< PBTI/NBTI K_v ratio
  // multi + failure + thermal
  /// Standby state: "" (each analysis's own: all stressed for multi and
  /// failure, inputs all-0 for thermal), "stressed", "relaxed", "zeros",
  /// "ones" or "mlv" (the minimum-leakage vector at T_standby). Enters a
  /// task key only when set, so stores written without it stay valid.
  std::string standby;
  // thermal
  double thermal_power = 60.0;        ///< dynamic power [W]
  double thermal_replication = 1e5;   ///< identical blocks on the die
  double thermal_runaway_k = 1000.0;  ///< runaway declaration threshold [K]
  // failure
  double fail_dvth = 0.05;       ///< wear-out failure threshold [V]
  double fail_max_years = 100.0; ///< crossing-search window [years]
  int fail_points = 40;          ///< geometric time-grid points
  double weibull_beta = 2.0;     ///< unit-lifetime Weibull shape
  std::vector<double> fail_curve_years = {1.0, 2.0, 5.0, 10.0, 20.0, 30.0};

  friend bool operator==(const Params&, const Params&) = default;
};

/// One "params" key: its spec name (the CLI flag is "--" + name with '-'
/// for '_'), the Params field it sets, the values it accepts — numbers,
/// and the elements of number lists, in [lo, hi], or in (lo, hi] when
/// `open`; "standby" is the one string — and the tag its value follows in
/// a task key.
struct ParamKey {
  std::string_view name;
  std::string_view tag;  ///< task-key prefix: "sp" in "sp1024"
  std::variant<int Params::*, double Params::*, std::uint64_t Params::*,
               std::string Params::*, std::vector<double> Params::*>
      field;
  double lo = -std::numeric_limits<double>::infinity();
  bool open = false;
  double hi = std::numeric_limits<double>::infinity();
};

/// Every "params" key, one row each: the one table the spec parser, the
/// task keys and the CLI's flag check read.
std::span<const ParamKey> param_keys();

/// The row of \p name; nullptr when no params key has that name.
const ParamKey* find_param(std::string_view name);

/// Ordered metric list — the order is the JSONL member order, so it must be
/// deterministic per analysis kind. Values are JSON nodes: most entries are
/// plain scalars (a double converts implicitly), but an analysis may attach
/// structured payloads — nested arrays/objects such as a full Pareto front,
/// a per-gate criticality vector, or a failure curve — alongside its scalar
/// summary. Scalar entries keep the legacy flat name→double contract;
/// summarize and the store index consider only scalar (number) entries.
using Metrics = std::vector<std::pair<std::string, common::json::Value>>;

class EvalContext;

/// One paper technique, evaluated on one grid cell.
struct Analysis {
  /// Canonical lowercase name — the spec/CLI/store identifier.
  std::string_view name;
  /// The param_keys() names run consumes, in task-key order.
  std::span<const std::string_view> reads;
  /// Evaluates the technique on a cell. Must be bit-identical for every
  /// campaign thread count (see file comment).
  Metrics (*run)(EvalContext& ctx, const Params& p);

  /// The task-key fragment of \p p: each `reads` key's tag and value,
  /// comma-joined, e.g. "sp1024,seed7,mc100,margin5" — an integer in
  /// decimal, a double as fmt_g, a list as "tag[a:b:…]", and an empty
  /// string not at all. Changing a field in `reads` changes it; changing
  /// any other field does not.
  /// \throws std::logic_error when a `reads` entry names no params key
  std::string fingerprint(const Params& p) const;
};

/// The built-in analyses, read-only, in sorted name order.
class AnalysisRegistry {
 public:
  /// The process-wide registry. Thread-safe: it never changes.
  static const AnalysisRegistry& global();

  /// nullptr when unknown.
  const Analysis* find(std::string_view name) const;

  /// \throws std::invalid_argument for unknown names, listing the known ones
  const Analysis& at(std::string_view name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

 private:
  explicit AnalysisRegistry(std::span<const Analysis> table)
      : table_(table) {}

  std::span<const Analysis> table_;  ///< sorted by name, no repeats
};

/// Compact, exact text of \p v for keys, fingerprints and metric names:
/// the "%g" bytes ("330", "0.05") when they read back as \p v, else the
/// shortest round-trip form rows print (json::format_number), so two values
/// never share a key.
std::string fmt_g(double v);

}  // namespace nbtisim::analysis
