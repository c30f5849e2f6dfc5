/// \file spec.h
/// \brief Declarative campaign specifications and their task-grid expansion.
///
/// The paper's evaluation is a *grid*: benchmarks × (RAS, T_active,
/// T_standby) × standby techniques over a 10-year horizon — Table 1 sweeps
/// schedules, Table 3 sweeps circuits under IVC, Fig. 11 sweeps
/// sleep-transistor styles. A campaign spec captures such a grid
/// declaratively as JSON:
///
/// ```json
/// {
///   "name": "table3_ivc",
///   "netlists": ["c432", "c880", "designs/core.bench", "dag:16x200@7"],
///   "conditions": [
///     {"ras": "1:9", "t_active": 400, "t_standby": 330, "years": 10}
///   ],
///   "analyses": ["aging", "ivc", "st", "lifetime",
///                "sizing", "derate", "pareto", "criticality"],
///   "params": {"sp_vectors": 1024, "samples": 100, "seed": 7},
///   "n_threads": 0,
///   "shards": 16
/// }
/// ```
///
/// The analysis axis is open: any name in analysis::AnalysisRegistry is
/// valid (see src/analysis/analysis.h) — spec parsing validates names
/// against the registry, so a new self-registered technique becomes
/// sweepable without touching this layer.
///
/// expand() turns the spec into the full cross product of tasks, each with a
/// stable 64-bit FNV-1a content hash over (netlist, condition, analysis,
/// engine parameters). The hash keys the JSONL result store: re-running a
/// partially completed campaign skips every task whose hash is already
/// stored. Hashing is *per-analysis*: each Analysis::fingerprint covers
/// exactly the parameters it consumes, so changing e.g. a sizing knob
/// re-runs only the sizing rows while every other stored row stays valid —
/// and a stale row can never be mistaken for a current result.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/analysis.h"
#include "common/json.h"

namespace nbtisim::campaign {

/// One operating scenario: stress schedule + lifetime horizon.
using Condition = analysis::Condition;

/// Engine knobs shared by every task of a campaign; each analysis hashes
/// the subset it consumes (see analysis::Analysis::fingerprint).
using CampaignParams = analysis::Params;

/// A parsed campaign specification.
struct CampaignSpec {
  std::string name;
  std::vector<std::string> netlists;  ///< built-in names, .bench/.v paths, or
                                      ///< "dag:<inputs>x<gates>@<seed>"
                                      ///< generator forms
  std::vector<Condition> conditions;
  std::vector<std::string> analyses;  ///< registry names ("aging", "sizing"…)
  CampaignParams params;
  int n_threads = 0;    ///< threads for the whole run — task loop and every
                        ///< inner loop (common::ThreadBudget); 0 = hardware
  int shards = 16;      ///< result-store shards (1, 2, 4, 8 or 16);
                        ///< 1 = legacy single-file layout
  bool cut_dffs = false;  ///< cut DFFs when loading .bench netlists
};

/// One cell of the expanded grid.
struct Task {
  int index = 0;  ///< position in grid order (netlist-major)
  std::string netlist;
  Condition condition;
  std::string analysis;  ///< registry name
  std::string hash;  ///< 16-hex-digit FNV-1a over key() — the store key

  /// Canonical task identity:
  /// "<netlist>|<condition>|<analysis>|<analysis fingerprint>".
  /// \throws std::invalid_argument when the analysis name is unknown
  std::string key(const CampaignParams& params) const;
};

/// Parses a spec document; analysis names are validated against the global
/// registry. Every number in "conditions" and "params" must be finite and
/// in range, and "standby" one of "", stressed, relaxed, zeros, ones, mlv.
/// \throws std::runtime_error / std::invalid_argument on schema violations,
///         naming the offending key — unknown keys included, at the top
///         level, in a condition and in "params"
CampaignSpec spec_from_json(const common::json::Value& doc);

/// The one-cell spec the CLI command `nbtisim <verb> <circuit> FLAGS…`
/// stands for. A flag is a spec key with '-' turned into '_': --ras,
/// --t-active, --t-standby and --years form the one condition, --threads
/// is n_threads, --cut-dffs is cut_dffs, and every other flag is a
/// "params" key. A value is whatever it parses as in JSON (a number, true,
/// false, an array, NaN), else a number when strtod takes all of it ("nan",
/// "inf"), else a string; a flag without a value is true. The document
/// goes through spec_from_json, so the CLI has no validator of its own.
/// A \p verb outside the registry (the CLI's `info`) runs no analysis: its
/// spec has no analyses and reads no params.
/// \throws std::invalid_argument naming the flag and \p verb when a params
///         flag changes Params but not the verb's fingerprint — a knob the
///         verb would silently ignore — and whatever spec_from_json throws
CampaignSpec spec_from_args(const std::string& verb,
                            const std::string& circuit,
                            const std::vector<std::string>& flags);

/// Loads and parses a spec file.
/// \throws std::runtime_error when the file cannot be read or parsed
CampaignSpec load_spec(const std::string& path);

/// Expands the full netlist × condition × analysis grid, hashes assigned.
/// \throws std::invalid_argument when any grid axis is empty or an analysis
///         name is unknown
std::vector<Task> expand(const CampaignSpec& spec);

/// 64-bit FNV-1a of \p s as 16 lowercase hex digits.
std::string fnv1a_hex(std::string_view s);

}  // namespace nbtisim::campaign
