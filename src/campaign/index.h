/// \file index.h
/// \brief Sidecar index over one JSONL result-store file, and the one
///        reader of store and sidecar lines.
///
/// Which bytes of a store file or a sidecar are data is decided in one
/// place, scan_lines():
///
///   - a line counts only once its newline is on disk;
///   - whitespace-only lines are skipped;
///   - a final line that has no newline, or that its caller rejects, is an
///     interrupted append: its bytes are cut before anything is appended
///     after them (ResultStore warns with path and byte offset; for the
///     sidecar, a cache, the cut is best-effort);
///   - a rejected line with more lines after it is damage: the store throws
///     naming path and byte offset, and a sidecar counts as stale.
///
/// Every store file `store.<h>.jsonl` may carry a sidecar
/// `store.<h>.index.jsonl` with one compact entry per row: the task hash,
/// the row's byte extent in the store file, the grid coordinates, and the
/// names of the row's scalar (number) metrics. The query layer
/// (src/query) filters on index entries and seeks straight to the matching
/// rows — non-matching rows are never parsed.
///
/// The sidecar is a cache, never a source of truth:
///
///   - **Built incrementally.** `ResultStore::append` emits entries for the
///     rows it just flushed, best-effort — a failed sidecar write never
///     fails the append.
///   - **Validated on load.** load_index() checks the sidecar against the
///     store file (extents that are integers in [0, 2^53], entries in file
///     order, extents whose newline lies inside the file, nothing but
///     whitespace between consecutive extents). Any mismatch — a
///     hand-edited store, a sidecar from a crashed writer — triggers a
///     transparent rebuild from the store file, which is then rewritten
///     best-effort.
///   - **Caught up on load.** Rows beyond the validated sidecar (appended by
///     an older binary, or a legacy store with no sidecar at all) are
///     scanned from the first unindexed byte and appended to the sidecar.
///
/// Entry schema (one compact JSON object per line; short keys keep the
/// sidecar a fraction of the store):
///   {"h":hash,"o":offset,"l":length,"n":netlist,"r":ras,
///    "ta":t_active,"ts":t_standby,"y":years,"a":analysis,"m":[names...]}
/// Coordinate keys are omitted when the row lacks them, so rows outside
/// the campaign schema still index (hash + extent only).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace nbtisim::campaign {

/// One store row as seen by the index: identity, byte extent, coordinates.
struct IndexEntry {
  std::string hash;
  std::uint64_t offset = 0;  ///< first byte of the row line in the store file
  std::uint64_t length = 0;  ///< line length excluding the trailing newline
  // Grid coordinates; empty string / NaN when the row lacks the member.
  std::string netlist;
  std::string ras;
  double t_active = std::numeric_limits<double>::quiet_NaN();
  double t_standby = std::numeric_limits<double>::quiet_NaN();
  double years = std::numeric_limits<double>::quiet_NaN();
  std::string analysis;
  /// Names of the scalar (number) metrics, row order. Structured payloads
  /// (arrays/objects) are not listed — predicates on them require a parse.
  std::vector<std::string> metrics;
};

/// Where scan_lines() stopped in one file.
struct LineScan {
  std::uint64_t end = 0;   ///< just past the last line that counts
  std::uint64_t size = 0;  ///< file size: [end, size) is an interrupted append
};

/// Reads \p path from byte \p from to its end under the rule in the file
/// comment: calls `accept(line, offset)` for every line whose newline is on
/// disk, skipping whitespace-only lines; `accept` throws to reject a line.
/// Stops at the first byte of an interrupted append, which the caller cuts.
/// A missing file scans as empty.
/// \throws std::runtime_error naming the path and byte offset when a
///         rejected line has more lines after it
LineScan scan_lines(
    const std::string& path, std::uint64_t from,
    const std::function<void(std::string_view line, std::uint64_t offset)>&
        accept);

/// \p path with \p text inserted before its extension:
/// ("store.jsonl", ".3") -> "store.3.jsonl"; ("noext", ".3") -> "noext.3".
std::string insert_before_extension(const std::string& path,
                                    std::string_view text);

/// The sidecar of \p store_path: "store.3.jsonl" -> "store.3.index.jsonl".
std::string index_path(const std::string& store_path);

/// Builds the entry for one row about to land at \p offset spanning
/// \p length bytes (excluding the newline). Tolerates rows without
/// coordinates or metrics.
IndexEntry entry_from_row(const common::json::Value& row, std::uint64_t offset,
                          std::uint64_t length);

/// Serializes one entry exactly as the sidecar stores it (compact, one
/// line, no trailing newline) — shared by the writer and the tests.
std::string dump_entry(const IndexEntry& e);

/// Appends \p entries to the sidecar of \p store_path. Best-effort: returns
/// false (and leaves any partial state to load-time validation) instead of
/// throwing when the sidecar cannot be written.
bool append_index_entries(const std::string& store_path,
                          std::span<const IndexEntry> entries);

/// The result of load_index(): the validated entries plus how they were
/// obtained (for tests and stats).
struct StoreIndex {
  std::vector<IndexEntry> entries;
  bool rebuilt = false;    ///< sidecar was missing/stale: rebuilt from store
  bool caught_up = false;  ///< valid sidecar extended over unindexed rows
};

/// Loads the index of \p store_path, validating the sidecar against the
/// store file and rebuilding or catching up as documented in the file
/// comment. A missing store file yields an empty index. An interrupted
/// append at the end of the store file is left unindexed (and in place:
/// ResultStore cuts it); one at the end of the sidecar is cut before the
/// catch-up appends after it.
/// \throws std::runtime_error on non-trailing store corruption
StoreIndex load_index(const std::string& store_path);

}  // namespace nbtisim::campaign
