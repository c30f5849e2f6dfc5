#include "sta/slew_sta.h"

#include <stdexcept>

namespace nbtisim::sta {

SlewStaEngine::SlewStaEngine(const netlist::Netlist& nl,
                             const tech::Library& lib, double input_slew)
    : input_slew_(input_slew), sta_(nl, lib) {
  if (input_slew <= 0.0) {
    throw std::invalid_argument("SlewStaEngine: non-positive input slew");
  }
}

SlewTimingResult SlewStaEngine::analyze(
    double temp_k, std::span<const double> pmos_dvth,
    std::span<const double> vth_offsets,
    std::span<const double> nmos_dvth) const {
  const netlist::Netlist& nl = sta_.netlist();
  const tech::Library& lib = sta_.library();
  if (!pmos_dvth.empty() &&
      static_cast<int>(pmos_dvth.size()) != nl.num_gates()) {
    throw std::invalid_argument("SlewStaEngine: dvth size mismatch");
  }
  if (!vth_offsets.empty() &&
      static_cast<int>(vth_offsets.size()) != nl.num_gates()) {
    throw std::invalid_argument("SlewStaEngine: vth offset size mismatch");
  }
  if (!nmos_dvth.empty() &&
      static_cast<int>(nmos_dvth.size()) != nl.num_gates()) {
    throw std::invalid_argument("SlewStaEngine: nmos dvth size mismatch");
  }

  using Edge = tech::Library::Edge;
  SlewTimingResult r;
  r.arrival_rise.assign(nl.num_nodes(), 0.0);
  r.arrival_fall.assign(nl.num_nodes(), 0.0);
  r.slew_rise.assign(nl.num_nodes(), input_slew_);
  r.slew_fall.assign(nl.num_nodes(), input_slew_);

  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::Gate& g = nl.gate(gi);
    const tech::CellId cell = sta_.gate_cell(gi);
    const double dvth = pmos_dvth.empty() ? 0.0 : pmos_dvth[gi];
    const double offset = vth_offsets.empty() ? 0.0 : vth_offsets[gi];
    const double n_dvth = nmos_dvth.empty() ? 0.0 : nmos_dvth[gi];
    const tech::Library::Unateness unate = lib.unateness(cell);

    // For each output edge, collect candidate (arrival, slew) per fanin,
    // choosing the causing input edge from the cell's unateness.
    for (Edge out_edge : {Edge::Rise, Edge::Fall}) {
      double best_arrival = 0.0;
      double best_slew = input_slew_;
      bool first = true;
      for (netlist::NodeId in : g.fanins) {
        // Candidate causing edges at this input.
        for (int pol = 0; pol < 2; ++pol) {
          const bool in_rising = pol == 1;
          const bool matches =
              (unate == tech::Library::Unateness::Binate) ||
              (unate == tech::Library::Unateness::Positive &&
               in_rising == (out_edge == Edge::Rise)) ||
              (unate == tech::Library::Unateness::Negative &&
               in_rising == (out_edge == Edge::Fall));
          if (!matches) continue;
          const double in_arr =
              in_rising ? r.arrival_rise[in] : r.arrival_fall[in];
          const double in_slew = in_rising ? r.slew_rise[in] : r.slew_fall[in];
          const tech::Library::ArcTiming arc =
              lib.cell_arc(cell, out_edge, sta_.gate_load(gi), in_slew,
                           temp_k, dvth, offset, n_dvth);
          const double arrival = in_arr + arc.delay;
          if (first || arrival > best_arrival) {
            best_arrival = arrival;
            best_slew = arc.out_slew;
            first = false;
          }
        }
      }
      if (out_edge == Edge::Rise) {
        r.arrival_rise[g.output] = best_arrival;
        r.slew_rise[g.output] = best_slew;
      } else {
        r.arrival_fall[g.output] = best_arrival;
        r.slew_fall[g.output] = best_slew;
      }
    }
  }

  for (netlist::NodeId po : nl.outputs()) {
    if (r.arrival_rise[po] > r.max_delay) {
      r.max_delay = r.arrival_rise[po];
      r.critical_output = po;
      r.critical_edge = Edge::Rise;
    }
    if (r.arrival_fall[po] > r.max_delay) {
      r.max_delay = r.arrival_fall[po];
      r.critical_output = po;
      r.critical_edge = Edge::Fall;
    }
  }
  return r;
}

}  // namespace nbtisim::sta
