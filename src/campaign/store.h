/// \file store.h
/// \brief Resumable JSONL result stores for campaign runs — one file
///        (ResultStore) and the task-hash-prefix sharded layout on top
///        (ShardedStore).
///
/// One result row per line, each a compact JSON object carrying the task
/// hash, the grid coordinates, and a flat metrics object. Append-only: a
/// crashed or killed run leaves a valid prefix plus at most one interrupted
/// append, and the next run re-executes exactly the tasks whose hashes are
/// missing. Which bytes are rows is decided by campaign::scan_lines()
/// (index.h), the one reader of store files and sidecars: a row counts once
/// its newline is on disk, whitespace-only lines are skipped, and a final
/// line without a newline (or that does not parse as a row) is cut with a
/// warning before the next append. Because rows are appended in task order
/// within every run and each row's serialization is deterministic, a
/// campaign executed with any thread count produces byte-identical files.
///
/// Sharding: a campaign of 10^5+ rows should not funnel every append
/// through one file. ShardedStore splits the store by the first hex nibble
/// of the task hash — `store.jsonl` becomes `store.0.jsonl` …
/// `store.f.jsonl` (for fewer than 16 shards, nibble % n_shards). Appends
/// are batched per shard; loading is shard-*aware* rather than
/// shard-*count*-aware: the base file and every prefix shard file present
/// on disk are all merged, so a store written under one shard count (or the
/// legacy single-file layout) resumes and summarizes correctly under
/// another. The per-file determinism contract carries over shard by shard.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/json.h"

namespace nbtisim::campaign {

/// Append-only JSONL file keyed by the "hash" member of each row.
class ResultStore {
 public:
  /// Binds to \p path and loads any existing rows through scan_lines(). A
  /// missing file is an empty store; an interrupted append at the end is
  /// cut from the file with a warning naming the path and byte offset (the
  /// interrupted task simply re-runs). A bad line earlier in the file
  /// throws — that is data loss, not an interrupted append.
  /// \param warnings sink for the truncated-tail warning; nullptr means
  ///        std::cerr
  /// \throws std::runtime_error on non-trailing corruption, or when the
  ///         damaged tail cannot be truncated (message names the path)
  explicit ResultStore(std::string path, std::ostream* warnings = nullptr);

  const std::string& path() const { return path_; }
  std::size_t size() const { return rows_.size(); }
  const std::vector<common::json::Value>& rows() const { return rows_; }
  bool contains(const std::string& hash) const {
    return hashes_.contains(hash);
  }

  /// Appends rows (each must be an object with a string "hash" member) and
  /// flushes them to disk as one write. The in-memory index is updated only
  /// after the flush succeeds: a failed append (ENOSPC, unwritable path)
  /// leaves the store exactly as it was, so retrying the same rows works.
  /// Matching entries are appended to the sidecar index (campaign/index.h)
  /// best-effort after the row flush — a failed sidecar write never fails
  /// the append (load_index() rebuilds later).
  /// \throws std::invalid_argument on a malformed or duplicate row
  /// \throws std::runtime_error when the file cannot be written
  void append(std::span<const common::json::Value> new_rows);

 private:
  std::string path_;
  std::vector<common::json::Value> rows_;
  std::unordered_set<std::string> hashes_;
  std::uint64_t end_offset_ = 0;  ///< file size = offset of the next append
};

/// The sharded store layout: up to 16 ResultStore shards selected by the
/// first hex nibble of each row's task hash, plus the base (legacy
/// single-file) store merged in read-only when present.
class ShardedStore {
 public:
  static constexpr int kMaxShards = 16;

  /// Opens the store rooted at \p path with \p n_shards append shards
  /// (1, 2, 4, 8 or 16). n_shards == 1 appends to \p path itself — the
  /// legacy layout, byte-for-byte. Independently of n_shards, every
  /// existing shard file (and the base file) is loaded, so resume works
  /// across layout changes.
  /// \param warnings truncated-tail warning sink, forwarded to every
  ///        ResultStore shard; nullptr means std::cerr
  /// \throws std::invalid_argument on a bad shard count
  /// \throws std::runtime_error on non-trailing corruption in any file
  ShardedStore(std::string path, int n_shards,
               std::ostream* warnings = nullptr);

  /// Every file a store rooted at \p path can hold, in merge order: the
  /// base file, then shards 0..f.
  static std::array<std::string, kMaxShards + 1> files(
      const std::string& path);

  /// True when the base file or any prefix shard file exists on disk.
  static bool exists(const std::string& path);

  /// The file of shard \p shard (0..15): "store.jsonl" -> "store.3.jsonl".
  static std::string shard_path(const std::string& base, int shard);

  const std::string& path() const { return path_; }
  int n_shards() const { return n_shards_; }

  /// Total rows across the base file and all loaded shards.
  std::size_t size() const;
  bool contains(const std::string& hash) const {
    return hashes_.contains(hash);
  }

  /// The append shard a hash routes to: first hex nibble % n_shards.
  int shard_of(std::string_view hash) const;

  /// Validates the whole batch against the union index, then appends it
  /// grouped by shard — one batched write per shard, shards in ascending
  /// order. A failed shard write leaves that shard (and all later ones)
  /// untouched on disk and in memory, so a retry after the fault resumes
  /// exactly the missing rows.
  /// \throws std::invalid_argument on a malformed or duplicate row
  /// \throws std::runtime_error when a shard file cannot be written
  void append(std::span<const common::json::Value> new_rows);

  /// Every row, merged deterministically: base-file rows first, then
  /// shards 0..f, file order within each.
  std::vector<const common::json::Value*> all_rows() const;

 private:
  std::string path_;
  int n_shards_ = 1;
  /// One store per slot of files(path_): the append targets, plus every
  /// other file on disk merged in read-only.
  std::array<std::unique_ptr<ResultStore>, kMaxShards + 1> files_;
  std::unordered_set<std::string> hashes_;  ///< union over all files
};

}  // namespace nbtisim::campaign
