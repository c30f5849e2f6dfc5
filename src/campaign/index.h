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
/// row's scalar (number) metrics with their values. The query layer
/// (src/query) answers coordinate and scalar-metric predicates, scalar
/// columns and every aggregate from the entries alone, and seeks into the
/// store only for a matching row whose entry does not list an output column
/// as a scalar, such as a structured payload the query selects.
///
/// The sidecar is a cache, never a source of truth:
///
///   - **Built incrementally.** `ResultStore::append` emits entries for the
///     rows it just flushed, best-effort — a failed sidecar write never
///     fails the append.
///   - **Validated on load.** load_index() checks each line against the
///     schema below and the entries against the store file (extents that
///     are integers in [0, 2^53], entries in file order, extents whose
///     newline lies inside the file, nothing but whitespace between
///     consecutive extents). Any mismatch — a hand-edited store, a sidecar
///     from a crashed writer, a sidecar in an older schema — triggers a
///     transparent rebuild from the store file, which is then rewritten
///     best-effort. The check reads the store at increasing offsets only.
///     It cannot see an in-place edit of a row that keeps every extent:
///     the entry then answers with the coordinates and metric values the
///     row held when it was indexed.
///   - **Caught up on load.** Rows beyond the validated sidecar (appended by
///     an older binary, or a legacy store with no sidecar at all) are
///     scanned from the first unindexed byte and appended to the sidecar.
///
/// Entry schema (one compact JSON object per line; short keys keep the
/// sidecar a fraction of the store):
///   {"h":hash,"o":offset,"l":length,"n":netlist,"r":ras,
///    "ta":t_active,"ts":t_standby,"y":years,"a":analysis,
///    "m":{name:value,...}}
/// "h", "o" and "l" are required; unknown keys are skipped, and a known key
/// of the wrong kind makes the sidecar stale. Coordinate keys are omitted
/// when the row lacks them, so rows outside the campaign schema still index
/// (hash + extent only). "m" lists the row's number-valued metrics in row
/// order, written by json::format_number like the row itself, so each reads
/// back as the row's own double (NaN and ±Infinity included); it is
/// omitted when there are none. A sidecar whose "m" is a list of names (the
/// earlier schema) is stale and rebuilt once.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
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
  /// The scalar (number) metrics, name and value, in row order. Structured
  /// payloads (arrays/objects) and other non-numbers are not listed: a
  /// query reads them from the row.
  std::vector<std::pair<std::string, double>> metrics;

  /// The value of scalar metric \p name; nullptr when it is not listed.
  const double* metric(std::string_view name) const;
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

/// Reads byte extents of one file by position (pread): no stream buffer is
/// refilled after a seek, and no read moves a file position. The file is
/// opened at the first open() or read(), so a reader that reads nothing
/// never touches it. \p path must outlive the reader.
class ExtentReader {
 public:
  explicit ExtentReader(const std::string& path) : path_(path) {}
  ExtentReader(const ExtentReader&) = delete;
  ExtentReader& operator=(const ExtentReader&) = delete;
  ~ExtentReader();

  /// Opens the file unless it is open; false when it cannot be opened.
  bool open();

  /// The \p length bytes at \p offset, valid until the next read.
  /// \throws std::runtime_error naming the path when the file cannot be
  ///         opened or ends before the extent does
  std::string_view read(std::uint64_t offset, std::uint64_t length);

 private:
  const std::string& path_;
  int fd_ = -1;
  std::string buf_;
};

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

/// Reads one sidecar line as load_index() does: straight from the parser's
/// tokens into the entry, with no json::Value tree.
/// \throws std::runtime_error when the line is not an entry of the schema
///         in the file comment
IndexEntry parse_entry(std::string_view line);

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
