#include "report/derate.h"

#include <stdexcept>

#include "common/pool.h"
#include "tech/units.h"

namespace nbtisim::report {

Table DerateTable::to_table(int precision) const {
  Table t;
  t.headers.push_back("years");
  for (const std::string& name : policy_names) t.headers.push_back(name);
  for (std::size_t y = 0; y < years.size(); ++y) {
    std::vector<double> row;
    for (std::size_t p = 0; p < factors.size(); ++p) {
      row.push_back(factors[p][y]);
    }
    char label[32];
    std::snprintf(label, sizeof label, "%g", years[y]);
    t.add_row(label, row, precision);
  }
  return t;
}

DerateTable aging_derate_table(const aging::AgingAnalyzer& analyzer,
                               std::vector<double> years) {
  if (years.empty()) {
    throw std::invalid_argument("aging_derate_table: no lifetimes");
  }
  for (double y : years) {
    if (y <= 0.0) {
      throw std::invalid_argument("aging_derate_table: non-positive lifetime");
    }
  }

  const netlist::Netlist& nl = analyzer.sta().netlist();
  DerateTable table;
  table.years = std::move(years);
  table.policy_names = {"worst_case", "inputs_all_zero", "best_case"};

  const std::vector<aging::StandbyPolicy> policies{
      aging::StandbyPolicy::all_stressed(),
      aging::StandbyPolicy::from_vector(
          std::vector<bool>(nl.num_inputs(), false)),
      aging::StandbyPolicy::all_relaxed(),
  };
  // One degradation_series-style pass per policy: the first year builds the
  // policy's stress descriptors, the rest reuse them.  Each pass fills only
  // its own column, so fanning the policies out over parallel_for keeps the
  // table bit-identical for every thread count.
  const double fresh = analyzer.fresh_critical_delay();
  table.factors.assign(policies.size(), {});
  common::parallel_for(static_cast<int>(policies.size()), [&](int p) {
    std::vector<double>& col = table.factors[p];
    col.reserve(table.years.size());
    for (double y : table.years) {
      const double aged =
          analyzer.aged_critical_delay(policies[p], y * kSecondsPerYear);
      col.push_back(aged / fresh);
    }
  });
  return table;
}

}  // namespace nbtisim::report
