#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <random>
#include <stdexcept>

#include "common/pool.h"
#include "common/rng.h"

namespace nbtisim::sim {

std::uint64_t eval_gate(tech::GateFn fn,
                        std::span<const netlist::NodeId> fanins,
                        const std::uint64_t* value) {
  using tech::GateFn;
  if (fanins.empty()) throw std::invalid_argument("eval_gate: no fanins");
  std::uint64_t acc;
  switch (fn) {
    case GateFn::Not:
      return ~value[fanins[0]];
    case GateFn::Buf:
      return value[fanins[0]];
    case GateFn::And:
    case GateFn::Nand:
      acc = ~0ull;
      for (netlist::NodeId in : fanins) acc &= value[in];
      return fn == GateFn::Nand ? ~acc : acc;
    case GateFn::Or:
    case GateFn::Nor:
      acc = 0;
      for (netlist::NodeId in : fanins) acc |= value[in];
      return fn == GateFn::Nor ? ~acc : acc;
    case GateFn::Xor:
    case GateFn::Xnor:
      acc = 0;
      for (netlist::NodeId in : fanins) acc ^= value[in];
      return fn == GateFn::Xnor ? ~acc : acc;
  }
  throw std::logic_error("eval_gate: unknown function");
}

namespace {

/// The levelized loop: every net's word under \p pi_words, each gate
/// evaluated in gate order through eval_gate.  A forced PI takes its forced
/// word; a forced gate output takes it in place of the gate's function, so
/// it propagates downstream; a net forced twice keeps its last force.
/// Between forced gates the loop is the plain sweep.
std::vector<std::uint64_t> propagate(
    const netlist::Netlist& nl, std::span<const std::uint64_t> pi_words,
    std::span<const std::pair<netlist::NodeId, bool>> forces) {
  std::vector<std::uint64_t> value(nl.num_nodes(), 0);
  for (int i = 0; i < nl.num_inputs(); ++i) value[nl.inputs()[i]] = pi_words[i];
  std::vector<std::pair<int, std::uint64_t>> forced;  // (gate, word)
  for (const auto& [node, v] : forces) {
    if (node < 0 || node >= nl.num_nodes()) {
      throw std::invalid_argument("Simulator::evaluate_forced: bad net id");
    }
    const std::uint64_t word = v ? ~0ull : 0ull;
    const int gi = nl.driver_gate(node);
    if (gi < 0) {
      value[node] = word;
    } else {
      forced.emplace_back(gi, word);
    }
  }
  std::ranges::stable_sort(forced, {}, &std::pair<int, std::uint64_t>::first);

  const std::span<const netlist::Gate> gates = nl.gates();
  int begin = 0;
  auto sweep = [&](int end) {
    for (int gi = begin; gi < end; ++gi) {
      value[gates[gi].output] =
          eval_gate(gates[gi].fn, gates[gi].fanins, value.data());
    }
  };
  for (const auto& [gi, word] : forced) {
    sweep(gi);
    value[gates[gi].output] = word;
    begin = gi + 1;
  }
  sweep(nl.num_gates());
  return value;
}

}  // namespace

std::vector<bool> Simulator::evaluate(const std::vector<bool>& pi_values) const {
  return evaluate_forced(pi_values, {});
}

std::vector<bool> Simulator::evaluate_forced(
    const std::vector<bool>& pi_values,
    std::span<const std::pair<netlist::NodeId, bool>> forces) const {
  if (static_cast<int>(pi_values.size()) != nl_->num_inputs()) {
    throw std::invalid_argument("Simulator::evaluate: PI count mismatch");
  }
  std::vector<std::uint64_t> pi_words(pi_values.size());
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    pi_words[i] = pi_values[i] ? ~0ull : 0ull;
  }
  const std::vector<std::uint64_t> value = propagate(*nl_, pi_words, forces);
  std::vector<bool> out(value.size());
  for (std::size_t n = 0; n < value.size(); ++n) out[n] = value[n] & 1ull;
  return out;
}

std::vector<std::uint64_t> Simulator::evaluate_words(
    std::span<const std::uint64_t> pi_words) const {
  if (static_cast<int>(pi_words.size()) != nl_->num_inputs()) {
    throw std::invalid_argument("Simulator::evaluate_words: PI count mismatch");
  }
  return propagate(*nl_, pi_words, {});
}

std::vector<bool> Simulator::outputs(const std::vector<bool>& pi_values) const {
  const std::vector<bool> value = evaluate(pi_values);
  std::vector<bool> out;
  out.reserve(nl_->num_outputs());
  for (netlist::NodeId po : nl_->outputs()) out.push_back(value[po]);
  return out;
}

namespace {

// Words per RNG block. Fixed (not derived from the thread count) so the
// block decomposition — and with it each block's RNG stream — is the same
// for every thread count, which is what makes parallel runs bit-identical to
// serial ones.
constexpr int kBlockWords = 4;  // 256 vectors per block

// Per-block accumulators plus the boundary bits needed to stitch toggle
// counts across block seams during the ordered reduction.
struct StatsBlock {
  std::vector<std::uint32_t> one_count;
  std::vector<std::uint32_t> toggle_count;
  std::vector<std::uint8_t> first_bit;  // bit 0 of the block's first word
  std::vector<std::uint8_t> last_bit;   // bit 63 of the block's last word
};

}  // namespace

SignalStats estimate_signal_stats(const netlist::Netlist& nl,
                                  std::span<const double> input_sp,
                                  int n_vectors, std::uint64_t seed) {
  if (static_cast<int>(input_sp.size()) != nl.num_inputs()) {
    throw std::invalid_argument("estimate_signal_stats: SP count mismatch");
  }
  if (n_vectors < 1) {
    throw std::invalid_argument("estimate_signal_stats: n_vectors < 1");
  }
  for (double sp : input_sp) {
    if (sp < 0.0 || sp > 1.0) {
      throw std::invalid_argument("estimate_signal_stats: SP outside [0,1]");
    }
  }

  const int n_nodes = nl.num_nodes();
  const int n_words = (n_vectors + 63) / 64;
  const int n_blocks = (n_words + kBlockWords - 1) / kBlockWords;
  // Valid bits of the final (possibly partial) word.
  const int tail_bits = n_vectors - 64 * (n_words - 1);
  const std::uint64_t tail_mask =
      tail_bits == 64 ? ~0ull : (1ull << tail_bits) - 1ull;

  std::vector<StatsBlock> blocks(n_blocks);
  common::parallel_for(n_blocks, [&](int blk) {
    const Simulator sim(nl);
    std::mt19937_64 rng(common::stream_seed(seed, blk));
    std::uniform_real_distribution<double> uni(0.0, 1.0);

    StatsBlock& out = blocks[blk];
    out.one_count.assign(n_nodes, 0);
    out.toggle_count.assign(n_nodes, 0);
    out.first_bit.assign(n_nodes, 0);
    out.last_bit.assign(n_nodes, 0);

    std::vector<std::uint64_t> pi_words(nl.num_inputs());
    std::vector<std::uint64_t> prev;
    const int w_begin = blk * kBlockWords;
    const int w_end = std::min(n_words, w_begin + kBlockWords);
    for (int w = w_begin; w < w_end; ++w) {
      for (int i = 0; i < nl.num_inputs(); ++i) {
        std::uint64_t word = 0;
        for (int b = 0; b < 64; ++b) {
          word |= (uni(rng) < input_sp[i]) ? (1ull << b) : 0ull;
        }
        pi_words[i] = word;
      }
      const std::vector<std::uint64_t> value = sim.evaluate_words(pi_words);
      // Only n_vectors patterns were requested; the surplus bits of the
      // final word must not leak into the counts.
      const bool tail = w == n_words - 1;
      const std::uint64_t valid = tail ? tail_mask : ~0ull;
      const int bits = tail ? tail_bits : 64;
      // Transitions bit b -> b+1 exist for b in [0, bits - 1).
      const std::uint64_t intra =
          bits < 2 ? 0ull : (bits == 64 ? ~(1ull << 63) : (valid >> 1));
      if (w == w_begin) {
        for (int n = 0; n < n_nodes; ++n) out.first_bit[n] = value[n] & 1ull;
      }
      for (int n = 0; n < n_nodes; ++n) {
        const std::uint64_t v = value[n];
        out.one_count[n] += std::popcount(v & valid);
        const std::uint64_t t = v ^ (v >> 1);
        out.toggle_count[n] += std::popcount(t & intra);
        if (w > w_begin) {
          // Seam to the previous word inside this block.
          out.toggle_count[n] += ((prev[n] >> 63) ^ v) & 1ull;
        }
      }
      prev = value;
    }
    for (int n = 0; n < n_nodes; ++n) out.last_bit[n] = (prev[n] >> 63) & 1ull;
  });

  // Ordered reduction: integer counts summed in block order, plus the seam
  // transition between consecutive blocks.
  std::vector<std::uint64_t> one_total(n_nodes, 0);
  std::vector<std::uint64_t> toggle_total(n_nodes, 0);
  for (int blk = 0; blk < n_blocks; ++blk) {
    const StatsBlock& b = blocks[blk];
    for (int n = 0; n < n_nodes; ++n) {
      one_total[n] += b.one_count[n];
      toggle_total[n] += b.toggle_count[n];
      if (blk > 0) {
        toggle_total[n] += blocks[blk - 1].last_bit[n] != b.first_bit[n];
      }
    }
  }

  const double total = static_cast<double>(n_vectors);
  SignalStats stats;
  stats.n_vectors = n_vectors;
  stats.probability.resize(n_nodes);
  stats.activity.resize(n_nodes);
  for (int n = 0; n < n_nodes; ++n) {
    stats.probability[n] = static_cast<double>(one_total[n]) / total;
    stats.activity[n] =
        n_vectors < 2 ? 0.0
                      : static_cast<double>(toggle_total[n]) / (total - 1.0);
  }
  return stats;
}

}  // namespace nbtisim::sim
