/// \file derate.h
/// \brief Aging derate tables: the signoff artifact downstream flows consume.
///
/// Commercial STA applies aging as per-corner *derate factors* (a liberty
/// `timing_derate`-style multiplier on every gate delay). This generator
/// turns the analyzer's physics into that artifact: for a schedule and a
/// standby policy, the circuit-level delay-degradation factor at a set of
/// lifetimes, ready to export as CSV/Markdown.
#pragma once

#include <vector>

#include "aging/aging.h"
#include "report/report.h"

namespace nbtisim::report {

/// One derate row.
struct DeratePoint {
  double years = 0.0;
  double factor = 1.0;  ///< aged_delay / fresh_delay at that lifetime
};

/// A labelled derate table (one column per standby policy).
struct DerateTable {
  std::vector<double> years;
  std::vector<std::string> policy_names;
  std::vector<std::vector<double>> factors;  ///< [policy][year index]

  /// Renders as a report::Table (years as rows, policies as columns).
  Table to_table(int precision = 5) const;
};

/// Computes circuit-level derate factors for the given lifetimes under the
/// worst-case, all-zero-inputs and best-case standby policies.
///
/// Horizon-batched: each policy runs one pass of AgingAnalyzer::analyze over
/// the years — the stress descriptors are built at the first year and every
/// later year reuses them — and the per-policy passes fan out over
/// common::parallel_for.  Each pass writes only its own column and the
/// factors are pure per-cell values, so the table is bit-identical for
/// every thread count and identical to the per-cell oracle, which times each
/// cell with the path-walking reference STA (tests/test_differential.cpp).
/// \throws std::invalid_argument for an empty or non-positive lifetime list
DerateTable aging_derate_table(const aging::AgingAnalyzer& analyzer,
                               std::vector<double> years);

}  // namespace nbtisim::report
