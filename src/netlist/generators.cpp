#include "netlist/generators.h"

#include <algorithm>
#include <array>
#include <deque>
#include <random>
#include <stdexcept>

namespace nbtisim::netlist {
namespace {

using tech::GateFn;

/// \p prefix + decimal \p i, by appending (`"a" + std::to_string(i)` trips
/// a false GCC 12 -Wrestrict at -O3).
std::string indexed(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

/// XOR of two nets, optionally expanded into the 4-NAND2 network (the
/// structural relationship between ISCAS85 c499 and c1355).
NodeId make_xor2_net(Netlist& nl, NodeId a, NodeId b, const std::string& name,
                     bool expand) {
  if (!expand) return nl.add_gate(GateFn::Xor, {a, b}, name);
  const NodeId n0 = nl.add_gate(GateFn::Nand, {a, b}, name + "_n0");
  const NodeId n1 = nl.add_gate(GateFn::Nand, {a, n0}, name + "_n1");
  const NodeId n2 = nl.add_gate(GateFn::Nand, {b, n0}, name + "_n2");
  return nl.add_gate(GateFn::Nand, {n1, n2}, name);
}

struct AdderBits {
  NodeId sum;
  NodeId carry;
};

AdderBits full_adder(Netlist& nl, NodeId a, NodeId b, NodeId cin,
                     const std::string& prefix) {
  const NodeId x = nl.add_gate(GateFn::Xor, {a, b}, prefix + "_x");
  const NodeId s = nl.add_gate(GateFn::Xor, {x, cin}, prefix + "_s");
  const NodeId g = nl.add_gate(GateFn::And, {a, b}, prefix + "_g");
  const NodeId p = nl.add_gate(GateFn::And, {x, cin}, prefix + "_p");
  const NodeId c = nl.add_gate(GateFn::Or, {g, p}, prefix + "_c");
  return {s, c};
}

AdderBits half_adder(Netlist& nl, NodeId a, NodeId b,
                     const std::string& prefix) {
  const NodeId s = nl.add_gate(GateFn::Xor, {a, b}, prefix + "_s");
  const NodeId c = nl.add_gate(GateFn::And, {a, b}, prefix + "_c");
  return {s, c};
}

/// 2:1 mux out = sel ? b : a.
NodeId mux2(Netlist& nl, NodeId sel, NodeId a, NodeId b,
            const std::string& prefix) {
  const NodeId ns = nl.add_gate(GateFn::Not, {sel}, prefix + "_ns");
  const NodeId ta = nl.add_gate(GateFn::And, {ns, a}, prefix + "_ta");
  const NodeId tb = nl.add_gate(GateFn::And, {sel, b}, prefix + "_tb");
  return nl.add_gate(GateFn::Or, {ta, tb}, prefix + "_o");
}

}  // namespace

Netlist make_random_dag(const std::string& name, const RandomDagSpec& spec) {
  if (spec.n_inputs < 2 || spec.n_gates < 1 || spec.n_outputs < 1) {
    throw std::invalid_argument("make_random_dag: bad spec");
  }
  Netlist nl(name);
  std::mt19937_64 rng(spec.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  std::vector<NodeId> nodes;
  std::vector<int> fanout_count;
  for (int i = 0; i < spec.n_inputs; ++i) {
    nodes.push_back(nl.add_input(name + "_pi" + std::to_string(i)));
    fanout_count.push_back(0);
  }

  // ISCAS85-flavoured gate mix.
  auto pick_fn_arity = [&rng, &uni]() -> std::pair<GateFn, int> {
    const double r = uni(rng);
    if (r < 0.12) return {GateFn::Not, 1};
    if (r < 0.16) return {GateFn::Buf, 1};
    if (r < 0.40) return {GateFn::Nand, 2};
    if (r < 0.52) return {GateFn::Nor, 2};
    if (r < 0.64) return {GateFn::And, 2};
    if (r < 0.72) return {GateFn::Or, 2};
    if (r < 0.78) return {GateFn::Xor, 2};
    if (r < 0.82) return {GateFn::Xnor, 2};
    if (r < 0.90) return {GateFn::Nand, 3};
    if (r < 0.95) return {GateFn::Nor, 3};
    if (r < 0.98) return {GateFn::And, 4};
    return {GateFn::Nand, 4};
  };

  // Oldest-first queue of nets still lacking fanout, to guarantee coverage.
  std::deque<std::size_t> unconsumed;
  for (std::size_t i = 0; i < nodes.size(); ++i) unconsumed.push_back(i);

  for (int g = 0; g < spec.n_gates; ++g) {
    auto [fn, arity] = pick_fn_arity();
    std::vector<NodeId> fanins;
    std::vector<std::size_t> used_idx;

    const int remaining = spec.n_gates - g;
    const double deficit =
        static_cast<double>(unconsumed.size()) - spec.n_outputs;
    const bool force_consume =
        deficit > 0 && uni(rng) < std::min(1.0, deficit / remaining);

    for (int k = 0; k < arity; ++k) {
      std::size_t idx;
      if (k == 0 && force_consume) {
        idx = unconsumed.front();
      } else if (uni(rng) < spec.locality && nodes.size() > 64) {
        idx = nodes.size() - 1 -
              static_cast<std::size_t>(uni(rng) * std::min<std::size_t>(
                                                      128, nodes.size()));
      } else {
        idx = static_cast<std::size_t>(uni(rng) * nodes.size());
      }
      idx = std::min(idx, nodes.size() - 1);
      // Retry a few times for distinct fanins; fall back to linear scan.
      int guard = 0;
      while (std::find(used_idx.begin(), used_idx.end(), idx) !=
                 used_idx.end() &&
             guard++ < 8) {
        idx = static_cast<std::size_t>(uni(rng) * nodes.size());
      }
      while (std::find(used_idx.begin(), used_idx.end(), idx) !=
             used_idx.end()) {
        idx = (idx + 1) % nodes.size();
      }
      used_idx.push_back(idx);
      fanins.push_back(nodes[idx]);
    }

    const NodeId out =
        nl.add_gate(fn, fanins, name + "_g" + std::to_string(g));
    for (std::size_t idx : used_idx) {
      if (fanout_count[idx]++ == 0) {
        // Drop from the unconsumed queue (it is near the front if old).
        for (auto it = unconsumed.begin(); it != unconsumed.end(); ++it) {
          if (*it == idx) {
            unconsumed.erase(it);
            break;
          }
        }
      }
    }
    nodes.push_back(out);
    fanout_count.push_back(0);
    unconsumed.push_back(nodes.size() - 1);
  }

  // Everything still without fanout becomes a primary output.
  for (std::size_t idx : unconsumed) nl.mark_output(nodes[idx]);
  return nl;
}

Netlist make_multiplier(const std::string& name, int bits) {
  if (bits < 2 || bits > 32) {
    throw std::invalid_argument("make_multiplier: bits must be 2..32");
  }
  Netlist nl(name);
  std::vector<NodeId> a(bits), b(bits);
  for (int i = 0; i < bits; ++i) a[i] = nl.add_input(indexed("a", i));
  for (int i = 0; i < bits; ++i) b[i] = nl.add_input(indexed("b", i));

  // Partial products pp[i][j] = a[i] & b[j], summed along anti-diagonals
  // with a carry-save adder array (the c6288 structure).
  std::vector<std::vector<NodeId>> columns(2 * bits);
  for (int i = 0; i < bits; ++i) {
    for (int j = 0; j < bits; ++j) {
      const NodeId pp = nl.add_gate(
          GateFn::And, {a[i], b[j]},
          indexed("pp_", i) + "_" + std::to_string(j));
      columns[i + j].push_back(pp);
    }
  }

  std::vector<NodeId> product;
  int fa_count = 0;
  for (int col = 0; col < 2 * bits; ++col) {
    std::vector<NodeId>& bitsum = columns[col];
    while (bitsum.size() > 1) {
      const std::string pfx = indexed("add", fa_count++);
      if (bitsum.size() >= 3) {
        const AdderBits r =
            full_adder(nl, bitsum[0], bitsum[1], bitsum[2], pfx);
        bitsum.erase(bitsum.begin(), bitsum.begin() + 3);
        bitsum.push_back(r.sum);
        if (col + 1 < 2 * bits) columns[col + 1].push_back(r.carry);
      } else {
        const AdderBits r = half_adder(nl, bitsum[0], bitsum[1], pfx);
        bitsum.clear();
        bitsum.push_back(r.sum);
        if (col + 1 < 2 * bits) columns[col + 1].push_back(r.carry);
      }
    }
    if (!bitsum.empty()) {
      product.push_back(bitsum[0]);
    }
  }
  for (NodeId p : product) nl.mark_output(p);
  return nl;
}

Netlist make_alu(const std::string& name, int width) {
  if (width < 2 || width > 64) {
    throw std::invalid_argument("make_alu: width must be 2..64");
  }
  Netlist nl(name);
  std::vector<NodeId> a(width), b(width);
  for (int i = 0; i < width; ++i) a[i] = nl.add_input(indexed("a", i));
  for (int i = 0; i < width; ++i) b[i] = nl.add_input(indexed("b", i));
  const NodeId cin = nl.add_input("cin");
  const NodeId op0 = nl.add_input("op0");
  const NodeId op1 = nl.add_input("op1");
  const NodeId sub = nl.add_input("sub");

  // Adder/subtractor: b is conditionally inverted, cin OR sub feeds carry.
  std::vector<NodeId> sum(width);
  NodeId carry = nl.add_gate(GateFn::Or, {cin, sub}, "c_in");
  for (int i = 0; i < width; ++i) {
    const NodeId bx =
        nl.add_gate(GateFn::Xor, {b[i], sub}, indexed("bx", i));
    const AdderBits r = full_adder(nl, a[i], bx, carry, indexed("fa", i));
    sum[i] = r.sum;
    carry = r.carry;
  }

  // Bitwise datapath + mux tree: op = 00 add, 01 and, 10 or, 11 xor.
  std::vector<NodeId> result(width);
  for (int i = 0; i < width; ++i) {
    const std::string s = std::to_string(i);
    const NodeId andb = nl.add_gate(GateFn::And, {a[i], b[i]}, "land" + s);
    const NodeId orb = nl.add_gate(GateFn::Or, {a[i], b[i]}, "lor" + s);
    const NodeId xorb = nl.add_gate(GateFn::Xor, {a[i], b[i]}, "lxor" + s);
    const NodeId lo = mux2(nl, op0, sum[i], andb, "m0_" + s);
    const NodeId hi = mux2(nl, op0, orb, xorb, "m1_" + s);
    result[i] = mux2(nl, op1, lo, hi, "m2_" + s);
    nl.mark_output(result[i]);
  }
  nl.mark_output(carry);

  // Zero flag: NOR tree over the result.
  const NodeId zero = build_wide_gate(nl, GateFn::Nor, result, "zf");
  nl.mark_output(zero);
  // Parity flag.
  const NodeId par = build_wide_gate(nl, GateFn::Xor, result, "pf");
  nl.mark_output(par);
  return nl;
}

Netlist make_priority_controller(const std::string& name, int channels,
                                 int mask_groups) {
  if (channels < 2 || mask_groups < 1 || channels % mask_groups != 0) {
    throw std::invalid_argument(
        "make_priority_controller: channels must be a positive multiple of "
        "mask_groups");
  }
  Netlist nl(name);
  std::vector<NodeId> req(channels), mask(mask_groups);
  for (int i = 0; i < channels; ++i) {
    req[i] = nl.add_input(indexed("req", i));
  }
  for (int i = 0; i < mask_groups; ++i) {
    mask[i] = nl.add_input(indexed("mask", i));
  }

  const int per_group = channels / mask_groups;
  std::vector<NodeId> eff(channels), grant(channels);
  for (int i = 0; i < channels; ++i) {
    const std::string s = std::to_string(i);
    const NodeId nm =
        nl.add_gate(GateFn::Not, {mask[i / per_group]}, "nm" + s);
    eff[i] = nl.add_gate(GateFn::And, {req[i], nm}, "eff" + s);
  }
  // Priority chain: grant[i] = eff[i] & none-before(i).
  NodeId none_before = -1;
  for (int i = 0; i < channels; ++i) {
    const std::string s = std::to_string(i);
    if (i == 0) {
      grant[0] = eff[0];
      none_before = nl.add_gate(GateFn::Not, {eff[0]}, "nb0");
    } else {
      grant[i] = nl.add_gate(GateFn::And, {eff[i], none_before}, "gr" + s);
      if (i + 1 < channels) {
        const NodeId ne = nl.add_gate(GateFn::Not, {eff[i]}, "ne" + s);
        none_before =
            nl.add_gate(GateFn::And, {none_before, ne}, "nb" + s);
      }
    }
  }

  // Binary encoding of the granted channel.
  int enc_bits = 0;
  while ((1 << enc_bits) < channels) ++enc_bits;
  for (int bit = 0; bit < enc_bits; ++bit) {
    std::vector<NodeId> members;
    for (int i = 0; i < channels; ++i) {
      if ((i >> bit) & 1) members.push_back(grant[i]);
    }
    const NodeId enc = members.size() == 1
                           ? members[0]
                           : build_wide_gate(nl, GateFn::Or, members,
                                             indexed("enc", bit));
    nl.mark_output(enc);
  }
  nl.mark_output(build_wide_gate(nl, GateFn::Or, eff, "valid"));
  nl.mark_output(build_wide_gate(nl, GateFn::Xor, eff, "par"));
  return nl;
}

Netlist make_ecc(const std::string& name, int data_bits, int check_bits,
                 bool expand_xor) {
  if (data_bits < 4 || check_bits < 2 || check_bits > 16) {
    throw std::invalid_argument("make_ecc: bad geometry");
  }
  Netlist nl(name);
  std::vector<NodeId> d(data_bits), p(check_bits);
  for (int i = 0; i < data_bits; ++i) {
    d[i] = nl.add_input(indexed("d", i));
  }
  for (int j = 0; j < check_bits; ++j) {
    p[j] = nl.add_input(indexed("p", j));
  }
  const NodeId enable = nl.add_input("en");

  // Deterministic parity-subset membership (pseudo-Hamming).
  auto member = [&](int bit, int subset) {
    return ((bit * 37 + subset * 11 + (bit >> 2)) % check_bits) == subset ||
           ((bit + subset) % check_bits) == 0;
  };

  // Syndromes: s_j = p_j XOR parity(subset_j of data).
  std::vector<NodeId> syn(check_bits);
  for (int j = 0; j < check_bits; ++j) {
    NodeId acc = p[j];
    int terms = 0;
    for (int i = 0; i < data_bits; ++i) {
      if (member(i, j)) {
        acc = make_xor2_net(nl, acc, d[i],
                            indexed("s", j) + "_" + std::to_string(terms),
                            expand_xor);
        ++terms;
      }
    }
    syn[j] = acc;
  }

  // Per-bit error decode + correction.
  for (int i = 0; i < data_bits; ++i) {
    const std::string s = std::to_string(i);
    std::vector<NodeId> match_terms;
    for (int j = 0; j < check_bits; ++j) {
      if (member(i, j)) {
        match_terms.push_back(syn[j]);
      } else {
        match_terms.push_back(
            nl.add_gate(GateFn::Not, {syn[j]}, "ns" + s + "_" + std::to_string(j)));
      }
    }
    const NodeId match = build_wide_gate(nl, GateFn::And, match_terms, "mt" + s);
    const NodeId flip = nl.add_gate(GateFn::And, {match, enable}, "fl" + s);
    const NodeId corrected = make_xor2_net(nl, d[i], flip, "o" + s, expand_xor);
    nl.mark_output(corrected);
  }
  return nl;
}

Netlist make_parity_tree(const std::string& name, int width) {
  if (width < 2) throw std::invalid_argument("make_parity_tree: width < 2");
  Netlist nl(name);
  std::vector<NodeId> ins(width);
  for (int i = 0; i < width; ++i) {
    ins[i] = nl.add_input(indexed("i", i));
  }
  nl.mark_output(build_wide_gate(nl, GateFn::Xor, ins, "par"));
  return nl;
}

Netlist make_ripple_adder(const std::string& name, int width) {
  if (width < 1) throw std::invalid_argument("make_ripple_adder: width < 1");
  Netlist nl(name);
  std::vector<NodeId> a(width), b(width);
  for (int i = 0; i < width; ++i) a[i] = nl.add_input(indexed("a", i));
  for (int i = 0; i < width; ++i) b[i] = nl.add_input(indexed("b", i));
  NodeId carry = nl.add_input("cin");
  for (int i = 0; i < width; ++i) {
    const AdderBits r = full_adder(nl, a[i], b[i], carry, indexed("fa", i));
    nl.mark_output(r.sum);
    carry = r.carry;
  }
  nl.mark_output(carry);
  return nl;
}

Netlist iscas85_like(const std::string& name) {
  if (name == "c432") return make_priority_controller("c432", 27, 9);
  if (name == "c499") return make_ecc("c499", 32, 8, /*expand_xor=*/false);
  if (name == "c880") return make_alu("c880", 8);
  if (name == "c1355") return make_ecc("c1355", 32, 8, /*expand_xor=*/true);
  if (name == "c1908") {
    return make_random_dag("c1908", {.n_inputs = 33, .n_outputs = 25,
                                     .n_gates = 880, .seed = 1908});
  }
  if (name == "c2670") {
    return make_random_dag("c2670", {.n_inputs = 233, .n_outputs = 140,
                                     .n_gates = 1193, .seed = 2670});
  }
  if (name == "c3540") {
    return make_random_dag("c3540", {.n_inputs = 50, .n_outputs = 22,
                                     .n_gates = 1669, .seed = 3540});
  }
  if (name == "c5315") {
    return make_random_dag("c5315", {.n_inputs = 178, .n_outputs = 123,
                                     .n_gates = 2307, .seed = 5315});
  }
  if (name == "c6288") return make_multiplier("c6288", 16);
  if (name == "c7552") {
    return make_random_dag("c7552", {.n_inputs = 207, .n_outputs = 108,
                                     .n_gates = 3512, .seed = 7552});
  }
  throw std::invalid_argument("iscas85_like: unknown circuit '" + name + "'");
}

std::span<const std::string_view> iscas85_names() {
  static constexpr std::array<std::string_view, 10> kNames = {
      "c432", "c499", "c880", "c1355", "c1908",
      "c2670", "c3540", "c5315", "c6288", "c7552"};
  return kNames;
}

}  // namespace nbtisim::netlist
