#include "netlist/bench_io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace nbtisim::netlist {
namespace {

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

bool is_dff(const std::string& raw) { return upper(raw) == "DFF"; }

tech::GateFn fn_from_name(const std::string& raw, int line_no, bool cut_dffs) {
  const std::string t = upper(raw);
  using tech::GateFn;
  if (t == "AND") return GateFn::And;
  if (t == "NAND") return GateFn::Nand;
  if (t == "OR") return GateFn::Or;
  if (t == "NOR") return GateFn::Nor;
  if (t == "XOR") return GateFn::Xor;
  if (t == "XNOR") return GateFn::Xnor;
  if (t == "NOT" || t == "INV") return GateFn::Not;
  if (t == "BUF" || t == "BUFF") return GateFn::Buf;
  if (t == "DFF") {
    (void)cut_dffs;  // handled by the caller; reaching here means rejection
    throw std::invalid_argument(
        "bench line " + std::to_string(line_no) +
        ": DFF found; pass BenchOptions{.cut_dffs = true} to cut sequential "
        "elements");
  }
  throw std::invalid_argument("bench line " + std::to_string(line_no) +
                              ": unknown gate type '" + raw + "'");
}

struct GateDef {
  std::string out;
  tech::GateFn fn;
  std::vector<std::string> ins;
  int line_no;
};

}  // namespace

Netlist parse_bench(std::string_view text, std::string name,
                    const BenchOptions& options) {
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::vector<std::pair<std::string, std::string>> dffs;  // (q, d)
  std::vector<GateDef> defs;
  std::unordered_map<std::string, int> def_of;  // out name -> defs index

  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string t = trim(line);
    if (t.empty()) continue;

    auto paren_arg = [&](std::string_view head) -> std::string {
      const std::size_t open = t.find('(');
      const std::size_t close = t.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close < open) {
        throw std::invalid_argument("bench line " + std::to_string(line_no) +
                                    ": malformed " + std::string(head));
      }
      return trim(std::string_view(t).substr(open + 1, close - open - 1));
    };

    const std::string head = upper(t.substr(0, t.find('(')));
    if (head == "INPUT") {
      input_names.push_back(paren_arg("INPUT"));
      continue;
    }
    if (head == "OUTPUT") {
      output_names.push_back(paren_arg("OUTPUT"));
      continue;
    }

    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("bench line " + std::to_string(line_no) +
                                  ": expected 'name = GATE(...)'");
    }
    const std::string out = trim(std::string_view(t).substr(0, eq));
    const std::string rhs = trim(std::string_view(t).substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    if (out.empty() || open == std::string::npos ||
        close == std::string::npos || close < open) {
      throw std::invalid_argument("bench line " + std::to_string(line_no) +
                                  ": malformed gate definition");
    }
    const std::string fn_name = trim(rhs.substr(0, open));
    if (options.cut_dffs && is_dff(fn_name)) {
      const std::string d =
          trim(rhs.substr(open + 1, close - open - 1));
      if (d.empty() || d.find(',') != std::string::npos) {
        throw std::invalid_argument("bench line " + std::to_string(line_no) +
                                    ": DFF must have exactly one input");
      }
      dffs.emplace_back(out, d);
      input_names.push_back(out);  // Q becomes a pseudo primary input
      continue;
    }
    GateDef def;
    def.out = out;
    def.fn = fn_from_name(fn_name, line_no, options.cut_dffs);
    def.line_no = line_no;
    std::string arg;
    std::istringstream args{rhs.substr(open + 1, close - open - 1)};
    while (std::getline(args, arg, ',')) {
      const std::string a = trim(arg);
      if (a.empty()) {
        throw std::invalid_argument("bench line " + std::to_string(line_no) +
                                    ": empty fanin");
      }
      def.ins.push_back(a);
    }
    if (def.ins.empty()) {
      throw std::invalid_argument("bench line " + std::to_string(line_no) +
                                  ": gate with no fanins");
    }
    if (def_of.contains(def.out)) {
      throw std::invalid_argument("bench line " + std::to_string(line_no) +
                                  ": net '" + def.out + "' driven twice");
    }
    def_of.emplace(def.out, static_cast<int>(defs.size()));
    defs.push_back(std::move(def));
  }

  Netlist nl(std::move(name));
  std::unordered_set<std::string> input_set(input_names.begin(),
                                            input_names.end());
  for (const std::string& pi : input_names) nl.add_input(pi);

  // Topological instantiation by iterative DFS over definitions.
  enum class Mark : unsigned char { White, Grey, Black };
  std::vector<Mark> mark(defs.size(), Mark::White);

  auto instantiate = [&](int root) {
    std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
    while (!stack.empty()) {
      auto& [d, next_in] = stack.back();
      GateDef& def = defs[d];
      if (mark[d] == Mark::Black) {
        stack.pop_back();
        continue;
      }
      mark[d] = Mark::Grey;
      bool descended = false;
      while (next_in < def.ins.size()) {
        const std::string& in_name = def.ins[next_in];
        ++next_in;
        if (input_set.contains(in_name) || nl.has_node(in_name)) continue;
        auto it = def_of.find(in_name);
        if (it == def_of.end()) {
          throw std::invalid_argument("bench: net '" + in_name +
                                      "' used at line " +
                                      std::to_string(def.line_no) +
                                      " is never driven");
        }
        if (mark[it->second] == Mark::Grey) {
          throw std::invalid_argument("bench: combinational cycle through '" +
                                      in_name + "'");
        }
        if (mark[it->second] == Mark::White) {
          stack.emplace_back(it->second, 0);
          descended = true;
          break;
        }
      }
      if (descended) continue;
      // All fanins available: build this gate.
      std::vector<NodeId> fanins;
      fanins.reserve(def.ins.size());
      for (const std::string& in_name : def.ins) {
        fanins.push_back(nl.find_node(in_name));
      }
      if (fanins.size() <= 4 && !(fanins.size() > 2 &&
                                  (def.fn == tech::GateFn::Xor ||
                                   def.fn == tech::GateFn::Xnor))) {
        nl.add_gate(def.fn, std::move(fanins), def.out);
      } else {
        const NodeId wide = build_wide_gate(nl, def.fn, fanins, def.out);
        // Alias the final helper net to the declared name via a buffer-free
        // rename: .bench semantics require the net to carry def.out, so we
        // add a BUF only when the tree result cannot be renamed.
        nl.add_gate(tech::GateFn::Buf, {wide}, def.out);
      }
      mark[d] = Mark::Black;
      stack.pop_back();
    }
  };

  for (int d = 0; d < static_cast<int>(defs.size()); ++d) {
    if (mark[d] == Mark::White) instantiate(d);
  }

  for (const std::string& po : output_names) {
    if (!nl.has_node(po)) {
      throw std::invalid_argument("bench: OUTPUT('" + po + "') is never driven");
    }
    nl.mark_output(nl.find_node(po));
  }
  // DFF D pins become pseudo primary outputs (the combinational cut).
  for (const auto& [q, d] : dffs) {
    if (!nl.has_node(d)) {
      throw std::invalid_argument("bench: DFF input '" + d +
                                  "' is never driven");
    }
    nl.mark_output(nl.find_node(d));
  }
  return nl;
}

Netlist load_bench(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_bench: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  std::string circuit_name = path;
  const std::size_t slash = circuit_name.find_last_of('/');
  if (slash != std::string::npos) circuit_name.erase(0, slash + 1);
  const std::size_t dot = circuit_name.find_last_of('.');
  if (dot != std::string::npos) circuit_name.erase(dot);
  return parse_bench(ss.str(), circuit_name);
}

std::string write_bench(const Netlist& nl) {
  std::ostringstream out;
  out << "# " << nl.name() << " — written by nbtisim\n";
  for (NodeId pi : nl.inputs()) out << "INPUT(" << nl.node_name(pi) << ")\n";
  for (NodeId po : nl.outputs()) out << "OUTPUT(" << nl.node_name(po) << ")\n";
  for (const Gate& g : nl.gates()) {
    std::string fn = upper(std::string(tech::gate_fn_name(g.fn)));
    if (fn == "BUF") fn = "BUFF";
    out << nl.node_name(g.output) << " = " << fn << "(";
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) out << ", ";
      out << nl.node_name(g.fanins[i]);
    }
    out << ")\n";
  }
  return out.str();
}

}  // namespace nbtisim::netlist
