/// \file bench_table2_gate_vectors.cpp
/// \brief Table 2 — leakage current and NBTI-induced delay degradation per
///        standby input vector for NOR2, NOR3 and INV (plus NAND2 for the
///        polarity contrast).
///
/// Paper setup: leakage at 400 K; NBTI with RAS = 1:9, T_active = 400 K,
/// T_standby = 330 K. Key finding: for NAND/AND/INV the min-leakage vector
/// gives the WORST aging; for NOR/OR it also gives the BEST aging.

#include <cstdio>

#include "aging/aging.h"
#include "bench_util.h"
#include "netlist/netlist.h"
#include "tech/units.h"

using namespace nbtisim;

namespace {

void gate_study(const tech::Library& lib, tech::GateFn fn, int fanin,
                const char* name) {
  // Single-gate circuit so the platform's machinery does the work.
  netlist::Netlist nl(name);
  std::vector<netlist::NodeId> pins;
  for (int i = 0; i < fanin; ++i) {
    std::string pin("i");
    pin += std::to_string(i);
    pins.push_back(nl.add_input(pin));
  }
  const netlist::NodeId out =
      fanin == 1 ? nl.add_gate(fn, {pins[0]}, "out")
                 : nl.add_gate(fn, pins, "out");
  nl.mark_output(out);

  aging::AgingConditions cond;
  cond.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  cond.sp_vectors = 4096;
  const aging::AgingAnalyzer analyzer(nl, lib, cond);
  const tech::LeakageTable table(lib, 400.0);
  const tech::CellId cell = lib.id_for(fn, fanin);

  std::printf("\n%s:\n", name);
  std::printf("  %-10s %14s %16s\n", "vector", "leakage [nA]", "ddelay [%]");
  double min_leak = 1e18;
  std::uint32_t mlv = 0;
  for (std::uint32_t v = 0; v < (1u << fanin); ++v) {
    std::vector<bool> standby(fanin);
    std::string label;
    for (int i = 0; i < fanin; ++i) {
      standby[i] = (v >> i) & 1u;
      label += standby[i] ? '1' : '0';
    }
    const double leak = table.leakage(cell, v);
    const double pct =
        analyzer.analyze(aging::StandbyPolicy::from_vector(standby)).percent();
    std::printf("  %-10s %14.2f %16.3f\n", label.c_str(), to_nA(leak), pct);
    if (leak < min_leak) {
      min_leak = leak;
      mlv = v;
    }
  }
  std::printf("  min-leakage vector: ");
  for (int i = 0; i < fanin; ++i) std::printf("%u", (mlv >> i) & 1u);
  std::printf("\n");
}

}  // namespace

int main() {
  bench::banner(
      "Table 2: per-vector leakage and NBTI delay degradation",
      "leakage at 400 K; aging at RAS 1:9, 400/330 K. NAND/INV: min-leak "
      "vector = worst aging. NOR: min-leak vector = best aging.");

  const tech::Library lib;
  gate_study(lib, tech::GateFn::Nor, 2, "NOR2");
  gate_study(lib, tech::GateFn::Nor, 3, "NOR3");
  gate_study(lib, tech::GateFn::Not, 1, "INV");
  gate_study(lib, tech::GateFn::Nand, 2, "NAND2 (contrast)");
  return 0;
}
