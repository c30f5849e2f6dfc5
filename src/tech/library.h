/// \file library.h
/// \brief The 90 nm standard-cell library: cells + electrical characterization.
///
/// Reproduces the paper's experimental substrate: "a standard cell library
/// constructed using the PTM 90-nm bulk CMOS model.  Vdd = 1.0 V,
/// |Vth| = 220 mV" (Section 3).  The library owns the cell set
/// (INV/BUF/NAND/NOR/AND/OR 2-4, XOR2/XNOR2), their transistor sizing, and
/// provides:
///   - per-(cell, input-vector, temperature) leakage — the lookup tables of
///     the paper's Fig. 6 flow,
///   - load-dependent alpha-power delays, optionally with an NBTI threshold
///     shift applied to the PMOS devices,
///   - pin capacitances for load computation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tech/cell.h"
#include "tech/device.h"

namespace nbtisim::tech {

/// Logic function names as used by netlists (.bench gate types).
enum class GateFn : std::uint8_t { Not, Buf, And, Nand, Or, Nor, Xor, Xnor };

/// Returns the canonical lower-case name of a gate function.
std::string_view gate_fn_name(GateFn fn);

/// Identifier of a cell within a Library.
using CellId = int;

/// Electrical/sizing knobs of the library.
struct LibraryParams {
  double vdd = 1.0;                  ///< supply voltage [V]
  double wn = 360e-9;                ///< unit NMOS width [m]
  double wp = 720e-9;                ///< unit PMOS width [m]
  DeviceParams nmos = default_device(Channel::Nmos);
  DeviceParams pmos = default_device(Channel::Pmos);
  double delay_scale = 0.91;         ///< global delay calibration factor
                                     ///< (c880-class ALU ~ 3.55 ns fresh)
  double wire_cap_per_fanout = 0.6e-15;  ///< lumped wire cap per sink [F]
  double diffusion_cap_factor = 0.7; ///< drain diffusion cap as a fraction of
                                     ///< the driving stage's own gate cap
};

/// A characterized standard-cell library.
class Library {
 public:
  explicit Library(LibraryParams params = {});

  const LibraryParams& params() const { return params_; }
  int num_cells() const { return static_cast<int>(cells_.size()); }
  const Cell& cell(CellId id) const;

  /// Finds a cell by name ("NAND2", "INV", ...).
  /// \throws std::out_of_range when absent
  CellId find(std::string_view name) const;

  /// Maps a logic function + fanin to a cell.
  /// \throws std::out_of_range when the (fn, fanin) combination is not in
  ///         the library (fanin > 4 must be decomposed by the caller)
  CellId id_for(GateFn fn, int fanin) const;

  /// The logic function a cell implements.
  GateFn fn_of(CellId id) const;

  /// Input capacitance of a pin [F].
  double input_cap(CellId id, int pin) const;

  /// Total leakage (subthreshold + gate oxide) of a cell in a static input
  /// state [A].  \p input_bits packs pin values (pin i = bit i).
  /// \param vth_offset threshold offset applied to EVERY transistor — the
  ///        high-Vth cell variant of a dual-Vth flow [V]
  double cell_leakage(CellId id, std::uint32_t input_bits, double temp_k,
                      double vth_offset = 0.0) const;

  /// Pin-to-output propagation delay [s] driving \p c_load farad, with an
  /// optional NBTI threshold shift \p pmos_dvth applied to every PMOS.
  /// The delay is the longest stage path through the cell (exact alpha-power
  /// re-evaluation; the paper's first-order form lives in aging/).
  /// \param vth_offset threshold offset applied to every transistor (dual-Vth)
  double cell_delay(CellId id, double c_load, double temp_k,
                    double pmos_dvth = 0.0, double vth_offset = 0.0) const;

  /// Intrinsic output (diffusion) capacitance of the cell's last stage [F].
  double output_cap(CellId id) const;

  /// Signal edge at a cell boundary.
  enum class Edge : std::uint8_t { Rise, Fall };

  /// One timing arc result: propagation delay and output transition time.
  struct ArcTiming {
    double delay = 0.0;     ///< 50%-to-50% propagation delay [s]
    double out_slew = 0.0;  ///< 10%-90% output transition time [s]
  };

  /// Slew-aware arc characterization: delay/slew for the given *output*
  /// edge, external load and input transition time. Internally walks the
  /// stage network alternating edges (an inverting stage's rising output is
  /// produced by its falling input); reconvergent stage networks (XOR) take
  /// the worst path. NBTI's pmos_dvth weakens only the pull-up, so it only
  /// slows arcs whose stage-level edge is a rise — the physically correct
  /// asymmetry the scalar model averages away.
  /// \param nmos_dvth threshold shift of the NMOS devices (PBTI/HCI) —
  ///        slows pull-down (falling-output) stage arcs only
  /// \throws std::invalid_argument for negative load/slew
  ArcTiming cell_arc(CellId id, Edge out_edge, double c_load, double in_slew,
                     double temp_k, double pmos_dvth = 0.0,
                     double vth_offset = 0.0, double nmos_dvth = 0.0) const;

  /// Whether the cell's aggregate function is negative unate (inverting),
  /// positive unate, or binate (edge depends on the causing pin, e.g. XOR).
  enum class Unateness : std::uint8_t { Positive, Negative, Binate };
  Unateness unateness(CellId id) const;

 private:
  LibraryParams params_;
  std::vector<Cell> cells_;
};

/// Dense per-vector leakage lookup table for a library at one temperature —
/// the "leakage lookup tables" input of the paper's Fig. 6 flow (eq. 24).
class LeakageTable {
 public:
  /// \param vth_offset builds the table for a Vth-shifted (e.g. high-Vth)
  ///        variant of every cell
  /// \throws std::invalid_argument for a non-finite or non-positive
  ///         \p temp_k or a non-finite \p vth_offset
  explicit LeakageTable(const Library& lib, double temp_k,
                        double vth_offset = 0.0);

  double temperature() const { return temp_k_; }
  double vth_offset() const { return vth_offset_; }

  /// Leakage of \p cell under packed \p input_bits [A].
  double leakage(CellId cell, std::uint32_t input_bits) const;

  /// Expected leakage of a cell whose pins are independent with the given
  /// probabilities of being 1 (paper eq. 24).
  double expected_leakage(CellId cell, std::span<const double> pin_sp) const;

  /// Input vector with minimum leakage for one cell (lowest index on ties).
  std::uint32_t min_leakage_vector(CellId cell) const;

 private:
  double temp_k_;
  double vth_offset_;
  std::vector<std::vector<double>> table_;  // [cell][vector]
};

}  // namespace nbtisim::tech
