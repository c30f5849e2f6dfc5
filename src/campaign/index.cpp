#include "campaign/index.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace nbtisim::campaign {
namespace {

using common::json::Value;

bool is_ws_only(std::string_view bytes) {
  for (char c : bytes) {
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return false;
  }
  return true;
}

/// A sidecar extent: an integer in [0, 2^53], the range where every integer
/// is an exact double. Anything else (negative, fractional, NaN, huge) is
/// a stale sidecar; the range is checked before the cast, which is
/// undefined beyond it.
std::uint64_t parse_extent(const Value& v, const char* key) {
  const double d = v.as_number();
  if (!(d >= 0.0 && d <= 9007199254740992.0) || d != std::floor(d)) {
    throw std::runtime_error(std::string("index: bad extent \"") + key +
                             "\"");
  }
  return static_cast<std::uint64_t>(d);
}

/// Parses one sidecar line back into an entry, moving its strings out of
/// the parsed line. Throws on schema mismatch — the caller treats that as a
/// stale sidecar, not an error.
IndexEntry parse_entry(std::string_view line) {
  Value v = common::json::parse(line);
  IndexEntry e;
  bool hash = false, offset = false, length = false;
  for (auto& [key, member] : v.as_object()) {
    if (key == "h") {
      e.hash = std::move(member.as_string());
      hash = true;
    } else if (key == "o") {
      e.offset = parse_extent(member, "o");
      offset = true;
    } else if (key == "l") {
      e.length = parse_extent(member, "l");
      length = true;
    } else if (key == "n") {
      e.netlist = std::move(member.as_string());
    } else if (key == "r") {
      e.ras = std::move(member.as_string());
    } else if (key == "ta") {
      e.t_active = member.as_number();
    } else if (key == "ts") {
      e.t_standby = member.as_number();
    } else if (key == "y") {
      e.years = member.as_number();
    } else if (key == "a") {
      e.analysis = std::move(member.as_string());
    } else if (key == "m") {
      for (Value& name : member.as_array()) {
        e.metrics.push_back(std::move(name.as_string()));
      }
    }
  }
  if (!hash || !offset || !length) {
    throw std::runtime_error("index: entry lacks \"h\", \"o\" or \"l\"");
  }
  return e;
}

/// Scans store-file rows in [from, end-of-file) and appends their entries.
/// Stops silently on a truncated final line (killed append); throws on
/// corruption that is not the final line.
void scan_rows(const std::string& store_path, std::ifstream& f,
               std::uint64_t from, std::vector<IndexEntry>& out) {
  f.clear();
  f.seekg(static_cast<std::streamoff>(from));
  std::string line;
  std::uint64_t offset = from;
  while (std::getline(f, line)) {
    const std::uint64_t len = line.size();
    if (!is_ws_only(line)) {
      try {
        const Value row = common::json::parse(line);
        if (!row.is_object()) throw std::runtime_error("row is not an object");
        out.push_back(entry_from_row(row, offset, len));
      } catch (const std::exception& e) {
        if (f.peek() == std::ifstream::traits_type::eof()) return;
        throw std::runtime_error(store_path + ": byte " +
                                 std::to_string(offset) + ": " + e.what());
      }
    }
    offset += len + 1;
  }
}

}  // namespace

std::string index_path(const std::string& store_path) {
  const std::size_t slash = store_path.find_last_of('/');
  const std::size_t dot = store_path.find_last_of('.');
  std::string out = store_path;
  if (dot != std::string::npos &&
      (slash == std::string::npos || dot > slash)) {
    out.insert(dot, ".index");  // store.3.jsonl -> store.3.index.jsonl
  } else {
    out += ".index";
  }
  return out;
}

IndexEntry entry_from_row(const Value& row, std::uint64_t offset,
                          std::uint64_t length) {
  IndexEntry e;
  e.hash = row.at("hash").as_string();
  e.offset = offset;
  e.length = length;
  e.netlist = row.string_or("netlist", "");
  e.ras = row.string_or("ras", "");
  e.t_active =
      row.number_or("t_active", std::numeric_limits<double>::quiet_NaN());
  e.t_standby =
      row.number_or("t_standby", std::numeric_limits<double>::quiet_NaN());
  e.years = row.number_or("years", std::numeric_limits<double>::quiet_NaN());
  e.analysis = row.string_or("analysis", "");
  if (const Value* metrics = row.find("metrics")) {
    for (const auto& [name, value] : metrics->as_object()) {
      if (value.is_number()) e.metrics.push_back(name);
    }
  }
  return e;
}

std::string dump_entry(const IndexEntry& e) {
  Value v;
  v.set("h", e.hash);
  v.set("o", static_cast<double>(e.offset));
  v.set("l", static_cast<double>(e.length));
  if (!e.netlist.empty()) v.set("n", e.netlist);
  if (!e.ras.empty()) v.set("r", e.ras);
  if (!std::isnan(e.t_active)) v.set("ta", e.t_active);
  if (!std::isnan(e.t_standby)) v.set("ts", e.t_standby);
  if (!std::isnan(e.years)) v.set("y", e.years);
  if (!e.analysis.empty()) v.set("a", e.analysis);
  if (!e.metrics.empty()) {
    common::json::Array names;
    names.reserve(e.metrics.size());
    for (const std::string& name : e.metrics) names.emplace_back(name);
    v.set("m", std::move(names));
  }
  return common::json::dump(v);
}

bool append_index_entries(const std::string& store_path,
                          std::span<const IndexEntry> entries) {
  if (entries.empty()) return true;
  std::string block;
  for (const IndexEntry& e : entries) {
    block += dump_entry(e);
    block += '\n';
  }
  std::ofstream f(index_path(store_path), std::ios::app);
  if (!f) return false;
  f << block;
  f.flush();
  return static_cast<bool>(f);
}

StoreIndex load_index(const std::string& store_path) {
  namespace fs = std::filesystem;
  StoreIndex out;

  std::error_code ec;
  const std::uintmax_t raw_size = fs::file_size(store_path, ec);
  const std::uint64_t store_size =
      ec ? 0 : static_cast<std::uint64_t>(raw_size);
  if (ec) return out;  // no store file: empty index

  std::ifstream store(store_path, std::ios::binary);
  if (!store) return out;

  // Read the sidecar: a truncated final line is a killed writer (dropped);
  // anything else unparsable means the whole sidecar is stale.
  bool valid = true;
  {
    std::ifstream side(index_path(store_path), std::ios::binary);
    if (side) {
      std::string line;
      while (std::getline(side, line)) {
        if (is_ws_only(line)) continue;
        try {
          out.entries.push_back(parse_entry(line));
        } catch (const std::exception&) {
          if (side.peek() == std::ifstream::traits_type::eof()) break;
          valid = false;
          break;
        }
      }
    }
  }

  // Validate entries against the store file: strictly forward extents that
  // stay inside the file, with nothing but whitespace between them. Reading
  // the (normally empty) gaps is the cheap proof that no unindexed row
  // hides between two indexed ones.
  std::uint64_t covered = 0;  // bytes of the store accounted for so far
  for (const IndexEntry& e : out.entries) {
    if (!valid) break;
    const std::uint64_t end = e.offset + e.length;
    if (e.offset < covered || end > store_size || e.length == 0) {
      valid = false;
      break;
    }
    if (e.offset > covered) {
      std::string gap(e.offset - covered, '\0');
      store.seekg(static_cast<std::streamoff>(covered));
      store.read(gap.data(), static_cast<std::streamsize>(gap.size()));
      if (!store || !is_ws_only(gap)) {
        valid = false;
        break;
      }
    }
    covered = end + 1;  // +1 for the row's newline
  }

  if (!valid) {
    // Stale sidecar: rebuild from the store file and rewrite (best-effort —
    // a read-only directory still gets a correct in-memory index).
    out.entries.clear();
    out.rebuilt = true;
    scan_rows(store_path, store, 0, out.entries);
    std::ofstream side(index_path(store_path), std::ios::trunc);
    if (side) {
      for (const IndexEntry& e : out.entries) side << dump_entry(e) << '\n';
    }
    return out;
  }

  // Valid sidecar that ends before the store does: catch up over the rows
  // appended without index entries.
  if (covered < store_size) {
    std::vector<IndexEntry> fresh;
    scan_rows(store_path, store, covered, fresh);
    if (!fresh.empty()) {
      out.caught_up = true;
      append_index_entries(store_path, fresh);
      for (IndexEntry& e : fresh) out.entries.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace nbtisim::campaign
