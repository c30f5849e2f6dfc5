// Cross-layer consistency and fuzz properties:
//   - the netlist-level gate kernel (sim::eval_gate) must agree with the
//     transistor-level cell stage networks (tech::Cell::evaluate) for every
//     library cell and every input vector;
//   - format round-trips (bench/verilog) preserve function on random DAGs;
//   - scalar and slew-aware STA agree on ordering relations;
//   - the leakage table matches direct evaluation across temperatures.

#include <gtest/gtest.h>

#include <random>

#include "netlist/bench_io.h"
#include "netlist/generators.h"
#include "netlist/verilog_io.h"
#include "sim/simulator.h"
#include "sta/slew_sta.h"
#include "sta/sta.h"
#include "support/reference.h"
#include "tech/library.h"

namespace nbtisim {
namespace {

// --- gate semantics vs cell networks ---

class GateCellAgreement
    : public ::testing::TestWithParam<std::pair<tech::GateFn, int>> {};

TEST_P(GateCellAgreement, SimulatorAndCellAgreeOnAllVectors) {
  const auto [fn, fanin] = GetParam();
  const tech::Library lib;
  const tech::CellId id = lib.id_for(fn, fanin);
  const tech::Cell& cell = lib.cell(id);
  // Every input vector in one word: bit v of pin i's word is bit i of v.
  std::vector<std::uint64_t> value(fanin, 0);
  std::vector<netlist::NodeId> pins(fanin);
  for (int i = 0; i < fanin; ++i) {
    pins[i] = i;
    for (std::uint32_t v = 0; v < (1u << fanin); ++v) {
      value[i] |= static_cast<std::uint64_t>((v >> i) & 1u) << v;
    }
  }
  const std::uint64_t out = sim::eval_gate(fn, pins, value.data());
  for (std::uint32_t v = 0; v < (1u << fanin); ++v) {
    EXPECT_EQ(((out >> v) & 1ull) != 0, cell.evaluate(v))
        << tech::gate_fn_name(fn) << fanin << " vector " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, GateCellAgreement,
    ::testing::Values(std::pair{tech::GateFn::Not, 1},
                      std::pair{tech::GateFn::Buf, 1},
                      std::pair{tech::GateFn::And, 2},
                      std::pair{tech::GateFn::And, 4},
                      std::pair{tech::GateFn::Nand, 2},
                      std::pair{tech::GateFn::Nand, 3},
                      std::pair{tech::GateFn::Nand, 4},
                      std::pair{tech::GateFn::Or, 3},
                      std::pair{tech::GateFn::Nor, 2},
                      std::pair{tech::GateFn::Nor, 4},
                      std::pair{tech::GateFn::Xor, 2},
                      std::pair{tech::GateFn::Xnor, 2}));

// --- format round-trip fuzz ---

class FormatFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormatFuzz, BenchRoundTripPreservesFunction) {
  const netlist::Netlist orig = netlist::make_random_dag(
      "fz", {.n_inputs = 12, .n_outputs = 6, .n_gates = 120,
             .seed = GetParam()});
  const netlist::Netlist back =
      netlist::parse_bench(netlist::write_bench(orig), "fz");
  const sim::Simulator so(orig), sb(back);
  std::mt19937_64 rng(GetParam() * 7 + 1);
  std::vector<std::uint64_t> words(orig.num_inputs());
  for (auto& w : words) w = rng();
  const auto vo = so.evaluate_words(words);
  const auto vb = sb.evaluate_words(words);
  for (netlist::NodeId po : orig.outputs()) {
    EXPECT_EQ(vo[po], vb[back.find_node(orig.node_name(po))]);
  }
}

TEST_P(FormatFuzz, VerilogRoundTripPreservesFunction) {
  const netlist::Netlist orig = netlist::make_random_dag(
      "fz", {.n_inputs = 10, .n_outputs = 5, .n_gates = 80,
             .seed = GetParam() + 100});
  const netlist::Netlist back =
      netlist::parse_verilog(netlist::write_verilog(orig));
  const sim::Simulator so(orig), sb(back);
  std::mt19937_64 rng(GetParam() * 13 + 2);
  std::vector<std::uint64_t> words(orig.num_inputs());
  for (auto& w : words) w = rng();
  const auto vo = so.evaluate_words(words);
  const auto vb = sb.evaluate_words(words);
  for (netlist::NodeId po : orig.outputs()) {
    EXPECT_EQ(vo[po], vb[back.find_node(orig.node_name(po))]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- scalar vs slew STA ordering relations ---

class StaAgreement : public ::testing::TestWithParam<std::string_view> {};

TEST_P(StaAgreement, AgingSlowsBothEngines) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like(std::string(GetParam()));
  const sta::StaEngine scalar(nl, lib);
  const sta::SlewStaEngine slew(nl, lib);
  const std::vector<double> dvth(nl.num_gates(), 0.047);

  const double s0 = scalar.analyze(scalar.gate_delays(400.0)).max_delay;
  const double s1 = scalar.analyze(scalar.gate_delays(400.0, dvth)).max_delay;
  const double w0 = slew.analyze(400.0).max_delay;
  const double w1 = slew.analyze(400.0, dvth).max_delay;
  EXPECT_GT(s1, s0);
  EXPECT_GT(w1, w0);
  // Both engines age the PMOS path only (the scalar engine averages the
  // rise/fall currents; the slew engine takes the worst edge, so its aged
  // shift can exceed the scalar's when the critical path turns
  // rise-dominated). Both must stay below the full Taylor sensitivity
  // alpha * dVth / (Vdd - Vth0) that attributes everything to the PMOS.
  const double taylor = lib.params().pmos.alpha * 0.047 /
                        (lib.params().vdd - lib.params().pmos.vth0);
  const double scalar_shift = (s1 - s0) / s0;
  const double slew_shift = (w1 - w0) / w0;
  EXPECT_LT(scalar_shift, taylor);
  EXPECT_LT(slew_shift, taylor);
  EXPECT_GT(scalar_shift, 0.2 * taylor);
  EXPECT_GT(slew_shift, 0.2 * taylor);
  // And they agree within a factor of two.
  EXPECT_LT(slew_shift / scalar_shift, 2.0);
  EXPECT_GT(slew_shift / scalar_shift, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Circuits, StaAgreement,
                         ::testing::Values("c432", "c499", "c880", "c1355"),
                         [](const auto& suite_info) {
                           return std::string(suite_info.param);
                         });

// --- leakage table vs direct evaluation across temperatures ---

class LeakageTableSweep : public ::testing::TestWithParam<double> {};

TEST_P(LeakageTableSweep, TableMatchesDirectForEveryCellAndVector) {
  const tech::Library lib;
  const double temp = GetParam();
  const tech::LeakageTable table(lib, temp);
  for (tech::CellId id = 0; id < lib.num_cells(); ++id) {
    const int pins = lib.cell(id).num_pins();
    for (std::uint32_t v = 0; v < (1u << pins); ++v) {
      EXPECT_DOUBLE_EQ(table.leakage(id, v), lib.cell_leakage(id, v, temp))
          << lib.cell(id).name() << " v=" << v << " T=" << temp;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Temps, LeakageTableSweep,
                         ::testing::Values(300.0, 330.0, 370.0, 400.0));

// --- word-parallel simulator vs the scalar oracle on every builtin circuit ---

class SimAgreement : public ::testing::TestWithParam<std::string_view> {};

TEST_P(SimAgreement, WordAndScalarSimulationsMatch) {
  const netlist::Netlist nl = netlist::iscas85_like(std::string(GetParam()));
  const sim::Simulator sim(nl);
  std::mt19937_64 rng(42);
  std::vector<std::uint64_t> words(nl.num_inputs());
  for (auto& w : words) w = rng();
  const auto wv = sim.evaluate_words(words);
  for (int bit = 0; bit < 64; bit += 13) {
    std::vector<bool> pi(nl.num_inputs());
    for (int i = 0; i < nl.num_inputs(); ++i) pi[i] = (words[i] >> bit) & 1ull;
    const auto sv = testsupport::reference_evaluate_forced(nl, pi);
    for (netlist::NodeId po : nl.outputs()) {
      EXPECT_EQ(((wv[po] >> bit) & 1ull) != 0, sv[po] != false)
          << GetParam() << " bit " << bit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, SimAgreement,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c6288"),
                         [](const auto& suite_info) {
                           return std::string(suite_info.param);
                         });

}  // namespace
}  // namespace nbtisim
