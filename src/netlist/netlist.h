/// \file netlist.h
/// \brief Gate-level combinational netlists modeled as DAGs.
///
/// "In circuit timing analysis, a combinational circuit can be modeled as a
/// directed acyclic graph G = (V, E)" (paper Section 3.3).  A Netlist owns
/// named nets (nodes) and gates.  add_gate() is the only way to add a gate,
/// and it rejects a fanin that does not exist yet and a wrong arity, so
/// every gate reads only primary inputs or outputs of earlier gates: the
/// gate list is a topological order by construction, which StaEngine and
/// Simulator rely on.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tech/library.h"

namespace nbtisim::netlist {

/// Identifier of a net (signal) within a netlist.
using NodeId = int;

/// One logic gate instance.
struct Gate {
  tech::GateFn fn = tech::GateFn::Buf;
  std::vector<NodeId> fanins;
  NodeId output = -1;
};

/// A combinational gate-level netlist.
class Netlist {
 public:
  explicit Netlist(std::string name);

  const std::string& name() const { return name_; }

  /// Creates a primary input net.
  /// \throws std::invalid_argument on duplicate net names
  NodeId add_input(std::string node_name);

  /// Creates a gate driving a new net; fanins must already exist.
  /// Gates with more than 4 fanins must be decomposed first
  /// (see build_wide_gate).
  /// \throws std::invalid_argument on bad fanins, arity, or duplicate names
  NodeId add_gate(tech::GateFn fn, std::vector<NodeId> fanins,
                  std::string out_name);

  /// Marks an existing net as a primary output.
  void mark_output(NodeId node);

  int num_nodes() const { return static_cast<int>(node_names_.size()); }
  int num_gates() const { return static_cast<int>(gates_.size()); }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }

  std::span<const NodeId> inputs() const { return inputs_; }
  std::span<const NodeId> outputs() const { return outputs_; }
  std::span<const Gate> gates() const { return gates_; }
  const Gate& gate(int idx) const { return gates_.at(idx); }

  const std::string& node_name(NodeId node) const;

  /// Finds a net by name.
  /// \throws std::out_of_range when no such net exists
  NodeId find_node(std::string_view node_name) const;
  bool has_node(std::string_view node_name) const;

  /// Index of the gate driving \p node, or -1 for primary inputs.
  int driver_gate(NodeId node) const { return driver_.at(node); }
  bool is_input(NodeId node) const { return driver_.at(node) < 0; }

  /// Indices of gates reading \p node.
  std::span<const int> fanout_gates(NodeId node) const;

  /// Logic level of each node (inputs at 0; gate output = 1 + max fanin
  /// level), computed in one O(V + E) pass over the gate list.
  std::vector<int> node_levels() const;

  /// Longest input-to-output path length in gates (the maximum of
  /// node_levels()).
  int depth() const;

  /// Structural sanity checks (every output reachable, arities consistent).
  /// \throws std::logic_error describing the first violation
  void validate() const;

 private:
  std::string name_;
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<Gate> gates_;
  std::vector<int> driver_;                 // node -> gate index or -1
  std::vector<std::vector<int>> fanouts_;   // node -> reader gate indices

  NodeId new_node(std::string node_name);
};

/// Builds a possibly-wide gate, decomposing fanin > 4 into a balanced tree of
/// library-supported gates (inverting functions keep their polarity: a wide
/// NAND becomes an AND-tree feeding a final NAND layer).
/// \returns the net carrying the function of all \p fanins
NodeId build_wide_gate(Netlist& nl, tech::GateFn fn, std::span<const NodeId> fanins,
                       const std::string& name_prefix);

/// The library cell of every gate of \p nl, in gate order.
/// \throws std::out_of_range for a gate the library has no cell for
std::vector<tech::CellId> gate_cells(const Netlist& nl,
                                     const tech::Library& lib);

}  // namespace nbtisim::netlist
