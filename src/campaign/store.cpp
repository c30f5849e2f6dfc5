#include "campaign/store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "campaign/index.h"

namespace nbtisim::campaign {

ResultStore::ResultStore(std::string path, std::ostream* warnings)
    : path_(std::move(path)) {
  const LineScan scan =
      scan_lines(path_, 0, [this](std::string_view line, std::uint64_t) {
        common::json::Value row = common::json::parse(line);
        if (!row.is_object()) throw std::runtime_error("row is not an object");
        hashes_.insert(row.at("hash").as_string());
        rows_.push_back(std::move(row));
      });
  end_offset_ = scan.end;
  if (scan.end == scan.size) return;
  // An interrupted append is expected, but never silent: the operator
  // should know which file lost a row and where, in case it was not a
  // crash but e.g. a concurrent writer.
  (warnings != nullptr ? *warnings : std::cerr)
      << "ResultStore: " << path_ << ": discarding truncated tail at byte "
      << scan.end << " (interrupted append; the task will re-run)\n";
  // Cut the partial bytes off the file too, so the re-appended row does not
  // land glued onto them. On a read-only or contended file this is a
  // store-level failure, not a crash: rethrow with the path so the operator
  // knows which shard to fix.
  try {
    std::filesystem::resize_file(path_, scan.end);
  } catch (const std::filesystem::filesystem_error& e) {
    throw std::runtime_error("ResultStore: cannot truncate damaged tail of " +
                             path_ + ": " + e.what());
  }
}

void ResultStore::append(std::span<const common::json::Value> new_rows) {
  if (new_rows.empty()) return;
  std::string block;
  std::vector<IndexEntry> entries;
  entries.reserve(new_rows.size());
  std::unordered_set<std::string_view> batch;  // duplicates within the batch
  for (const common::json::Value& row : new_rows) {
    const std::string& hash = row.at("hash").as_string();
    if (hashes_.contains(hash) || !batch.insert(hash).second) {
      throw std::invalid_argument("ResultStore: duplicate row hash " + hash);
    }
    const std::string dumped = common::json::dump(row);
    entries.push_back(
        entry_from_row(row, end_offset_ + block.size(), dumped.size()));
    block += dumped;
    block += '\n';
  }
  std::ofstream f(path_, std::ios::app);
  if (!f) throw std::runtime_error("ResultStore: cannot open " + path_);
  f << block;
  f.flush();
  if (!f) throw std::runtime_error("ResultStore: write failed for " + path_);
  // Mutate the in-memory index only after the bytes reached the stream: a
  // transient failure above must leave the store untouched, so the caller
  // can retry the very same rows without a spurious duplicate-hash error.
  for (const common::json::Value& row : new_rows) {
    hashes_.insert(row.at("hash").as_string());
    rows_.push_back(row);
  }
  end_offset_ += block.size();
  // Sidecar last, best-effort: if it cannot be written the index is merely
  // stale and load_index() will rebuild it.
  append_index_entries(path_, entries);
}

// ---------------------------------------------------------------------------
// ShardedStore

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  // Task hashes are 16 lowercase hex digits; anything else still routes
  // deterministically.
  return static_cast<unsigned char>(c) & 15;
}

}  // namespace

std::string ShardedStore::shard_path(const std::string& base, int shard) {
  const char suffix[] = {'.', kHexDigits[shard & 15]};
  return insert_before_extension(base, {suffix, 2});
}

std::array<std::string, ShardedStore::kMaxShards + 1> ShardedStore::files(
    const std::string& path) {
  std::array<std::string, kMaxShards + 1> out{path};
  for (int h = 0; h < kMaxShards; ++h) out[1 + h] = shard_path(path, h);
  return out;
}

bool ShardedStore::exists(const std::string& path) {
  std::error_code ec;
  return std::ranges::any_of(files(path), [&](const std::string& file) {
    return std::filesystem::exists(file, ec);
  });
}

ShardedStore::ShardedStore(std::string path, int n_shards,
                           std::ostream* warnings)
    : path_(std::move(path)), n_shards_(n_shards) {
  if (n_shards_ != 1 && n_shards_ != 2 && n_shards_ != 4 && n_shards_ != 8 &&
      n_shards_ != 16) {
    throw std::invalid_argument("ShardedStore: shards must be 1, 2, 4, 8 or "
                                "16 (got " + std::to_string(n_shards_) + ")");
  }
  const std::array<std::string, kMaxShards + 1> paths = files(path_);
  std::error_code ec;
  for (int k = 0; k <= kMaxShards; ++k) {
    // The append targets open even before they exist; any other file on
    // disk (a legacy base file, another layout's shards) merges read-only.
    const bool target = n_shards_ == 1 ? k == 0 : k >= 1 && k <= n_shards_;
    if (!target && !std::filesystem::exists(paths[k], ec)) continue;
    files_[k] = std::make_unique<ResultStore>(paths[k], warnings);
    for (const common::json::Value& row : files_[k]->rows()) {
      hashes_.insert(row.at("hash").as_string());
    }
  }
}

std::size_t ShardedStore::size() const {
  std::size_t total = 0;
  for (const auto& file : files_) {
    if (file) total += file->size();
  }
  return total;
}

int ShardedStore::shard_of(std::string_view hash) const {
  if (hash.empty()) return 0;
  return hex_nibble(hash.front()) % n_shards_;
}

void ShardedStore::append(std::span<const common::json::Value> new_rows) {
  if (new_rows.empty()) return;
  // Validate the whole batch against the union index up front, so the
  // per-shard writes below never start on a batch that would be rejected.
  std::unordered_set<std::string_view> batch;
  for (const common::json::Value& row : new_rows) {
    const std::string& hash = row.at("hash").as_string();
    if (hashes_.contains(hash) || !batch.insert(hash).second) {
      throw std::invalid_argument("ResultStore: duplicate row hash " + hash);
    }
  }
  // One group per slot of files_: the base file for one shard, else the
  // hash's prefix shard.
  std::array<std::vector<common::json::Value>, kMaxShards + 1> groups;
  for (const common::json::Value& row : new_rows) {
    const int shard = shard_of(row.at("hash").as_string());
    groups[n_shards_ == 1 ? 0 : 1 + shard].push_back(row);
  }
  for (int k = 0; k <= kMaxShards; ++k) {
    if (groups[k].empty()) continue;
    files_[k]->append(groups[k]);
    // Record file by file: a failed write on one leaves every later file
    // unrecorded on disk *and* in memory, so a retry appends exactly them.
    for (const common::json::Value& row : groups[k]) {
      hashes_.insert(row.at("hash").as_string());
    }
  }
}

std::vector<const common::json::Value*> ShardedStore::all_rows() const {
  std::vector<const common::json::Value*> out;
  out.reserve(size());
  for (const auto& file : files_) {
    if (!file) continue;
    for (const common::json::Value& row : file->rows()) out.push_back(&row);
  }
  return out;
}

}  // namespace nbtisim::campaign
