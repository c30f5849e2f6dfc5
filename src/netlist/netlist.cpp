#include "netlist/netlist.h"

#include <algorithm>
#include <stdexcept>

namespace nbtisim::netlist {
namespace {

bool arity_ok(tech::GateFn fn, std::size_t n) {
  switch (fn) {
    case tech::GateFn::Not:
    case tech::GateFn::Buf:
      return n == 1;
    case tech::GateFn::Xor:
    case tech::GateFn::Xnor:
      return n == 2;
    default:
      return n >= 2 && n <= 4;
  }
}

}  // namespace

Netlist::Netlist(std::string name) : name_(std::move(name)) {}

NodeId Netlist::new_node(std::string node_name) {
  if (node_name.empty()) {
    throw std::invalid_argument("Netlist: empty net name");
  }
  auto [it, inserted] =
      by_name_.emplace(node_name, static_cast<NodeId>(node_names_.size()));
  if (!inserted) {
    throw std::invalid_argument("Netlist '" + name_ + "': duplicate net '" +
                                node_name + "'");
  }
  node_names_.push_back(std::move(node_name));
  driver_.push_back(-1);
  fanouts_.emplace_back();
  return it->second;
}

NodeId Netlist::add_input(std::string node_name) {
  const NodeId id = new_node(std::move(node_name));
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_gate(tech::GateFn fn, std::vector<NodeId> fanins,
                         std::string out_name) {
  if (!arity_ok(fn, fanins.size())) {
    throw std::invalid_argument(
        "Netlist '" + name_ + "': bad arity " + std::to_string(fanins.size()) +
        " for gate " + std::string(tech::gate_fn_name(fn)) + " at '" +
        out_name + "'");
  }
  for (NodeId in : fanins) {
    if (in < 0 || in >= num_nodes()) {
      throw std::invalid_argument("Netlist '" + name_ +
                                  "': gate fanin does not exist yet at '" +
                                  out_name + "'");
    }
  }
  const NodeId out = new_node(std::move(out_name));
  const int gate_idx = static_cast<int>(gates_.size());
  for (NodeId in : fanins) fanouts_[in].push_back(gate_idx);
  gates_.push_back(Gate{fn, std::move(fanins), out});
  driver_[out] = gate_idx;
  return out;
}

void Netlist::mark_output(NodeId node) {
  if (node < 0 || node >= num_nodes()) {
    throw std::invalid_argument("Netlist::mark_output: no such net");
  }
  if (std::find(outputs_.begin(), outputs_.end(), node) == outputs_.end()) {
    outputs_.push_back(node);
  }
}

const std::string& Netlist::node_name(NodeId node) const {
  return node_names_.at(node);
}

NodeId Netlist::find_node(std::string_view node_name) const {
  auto it = by_name_.find(std::string(node_name));
  if (it == by_name_.end()) {
    throw std::out_of_range("Netlist '" + name_ + "': no net named '" +
                            std::string(node_name) + "'");
  }
  return it->second;
}

bool Netlist::has_node(std::string_view node_name) const {
  return by_name_.contains(std::string(node_name));
}

std::span<const int> Netlist::fanout_gates(NodeId node) const {
  return fanouts_.at(node);
}

std::vector<int> Netlist::node_levels() const {
  std::vector<int> level(num_nodes(), 0);
  for (const Gate& g : gates_) {
    int lv = 0;
    for (NodeId in : g.fanins) lv = std::max(lv, level[in]);
    level[g.output] = lv + 1;
  }
  return level;
}

int Netlist::depth() const {
  const std::vector<int> level = node_levels();
  return level.empty() ? 0 : *std::max_element(level.begin(), level.end());
}

void Netlist::validate() const {
  if (inputs_.empty()) throw std::logic_error("Netlist: no primary inputs");
  if (outputs_.empty()) throw std::logic_error("Netlist: no primary outputs");
  for (const Gate& g : gates_) {
    if (!arity_ok(g.fn, g.fanins.size())) {
      throw std::logic_error("Netlist: gate with invalid arity at '" +
                             node_name(g.output) + "'");
    }
  }
  // Every net should either feed a gate or be a primary output.
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (fanouts_[n].empty() &&
        std::find(outputs_.begin(), outputs_.end(), n) == outputs_.end()) {
      throw std::logic_error("Netlist: dangling net '" + node_name(n) + "'");
    }
  }
}

NodeId build_wide_gate(Netlist& nl, tech::GateFn fn,
                       std::span<const NodeId> fanins,
                       const std::string& name_prefix) {
  using tech::GateFn;
  if (fanins.empty()) {
    throw std::invalid_argument("build_wide_gate: no fanins");
  }
  auto fresh = [&nl, &name_prefix]() {
    return name_prefix + "_t" + std::to_string(nl.num_gates());
  };
  auto reduce_tree = [&](GateFn assoc_fn, std::span<const NodeId> ins) {
    // Balanced reduction with up-to-4-ary (or 2-ary for XOR) gates.
    const std::size_t radix =
        (assoc_fn == GateFn::Xor || assoc_fn == GateFn::Xnor) ? 2 : 4;
    std::vector<NodeId> layer(ins.begin(), ins.end());
    while (layer.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t i = 0; i < layer.size(); i += radix) {
        const std::size_t n = std::min(radix, layer.size() - i);
        if (n == 1) {
          next.push_back(layer[i]);
        } else {
          std::vector<NodeId> group(layer.begin() + i, layer.begin() + i + n);
          next.push_back(nl.add_gate(assoc_fn, std::move(group), fresh()));
        }
      }
      layer = std::move(next);
    }
    return layer[0];
  };

  switch (fn) {
    case GateFn::Not:
    case GateFn::Buf:
      if (fanins.size() != 1) {
        throw std::invalid_argument("build_wide_gate: NOT/BUF need 1 fanin");
      }
      return nl.add_gate(fn, {fanins[0]}, fresh());
    case GateFn::And:
    case GateFn::Or:
      if (fanins.size() == 1) return fanins[0];
      return reduce_tree(fn, fanins);
    case GateFn::Xor:
      if (fanins.size() == 1) return fanins[0];
      return reduce_tree(GateFn::Xor, fanins);
    case GateFn::Nand:
    case GateFn::Nor: {
      const GateFn inner = (fn == GateFn::Nand) ? GateFn::And : GateFn::Or;
      if (fanins.size() == 1) {
        return nl.add_gate(GateFn::Not, {fanins[0]}, fresh());
      }
      if (fanins.size() <= 4) {
        return nl.add_gate(fn, {fanins.begin(), fanins.end()}, fresh());
      }
      // Reduce groups with the non-inverting function, finish with one
      // inverting gate to preserve polarity.
      std::vector<NodeId> groups;
      for (std::size_t i = 0; i < fanins.size(); i += 4) {
        const std::size_t n = std::min<std::size_t>(4, fanins.size() - i);
        groups.push_back(
            n == 1 ? fanins[i] : reduce_tree(inner, fanins.subspan(i, n)));
      }
      if (groups.size() > 4) {
        const NodeId all = reduce_tree(inner, groups);
        return nl.add_gate(GateFn::Not, {all}, fresh());
      }
      return nl.add_gate(fn, std::move(groups), fresh());
    }
    case GateFn::Xnor: {
      if (fanins.size() == 2) {
        return nl.add_gate(GateFn::Xnor, {fanins.begin(), fanins.end()}, fresh());
      }
      const NodeId x = reduce_tree(GateFn::Xor, fanins);
      return nl.add_gate(GateFn::Not, {x}, fresh());
    }
  }
  throw std::logic_error("build_wide_gate: unknown gate function");
}

std::vector<tech::CellId> gate_cells(const Netlist& nl,
                                     const tech::Library& lib) {
  std::vector<tech::CellId> cells;
  cells.reserve(nl.num_gates());
  for (const Gate& g : nl.gates()) {
    cells.push_back(lib.id_for(g.fn, static_cast<int>(g.fanins.size())));
  }
  return cells;
}

}  // namespace nbtisim::netlist
