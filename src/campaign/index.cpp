#include "campaign/index.h"

#include <cmath>
#include <filesystem>
#include <fstream>
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

}  // namespace

LineScan scan_lines(
    const std::string& path, std::uint64_t from,
    const std::function<void(std::string_view line, std::uint64_t offset)>&
        accept) {
  LineScan out{from, from};
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size <= from) return out;
  std::string bytes(size - from, '\0');
  std::ifstream f(path, std::ios::binary);
  f.seekg(static_cast<std::streamoff>(from));
  f.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(f.gcount()));
  out.size = from + bytes.size();

  std::string_view rest(bytes);
  for (std::size_t nl; (nl = rest.find('\n')) != std::string_view::npos;
       rest.remove_prefix(nl + 1)) {
    const std::string_view line = rest.substr(0, nl);
    if (!is_ws_only(line)) {
      try {
        accept(line, out.end);
      } catch (const std::exception& e) {
        // A rejected final line is an interrupted append; anything after
        // it but whitespace makes it damage.
        if (is_ws_only(rest.substr(nl + 1))) return out;
        throw std::runtime_error(path + ": byte " + std::to_string(out.end) +
                                 ": " + e.what());
      }
    }
    out.end += nl + 1;
  }
  return out;  // what is left has no newline: an interrupted append
}

std::string insert_before_extension(const std::string& path,
                                    std::string_view text) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  std::string out = path;
  if (dot != std::string::npos &&
      (slash == std::string::npos || dot > slash)) {
    out.insert(dot, text);
  } else {
    out += text;
  }
  return out;
}

std::string index_path(const std::string& store_path) {
  return insert_before_extension(store_path, ".index");
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

  // Read the sidecar: damage means the whole sidecar is stale; an
  // interrupted append at its end is cut, so the catch-up below appends
  // after whole lines.
  const std::string side_path = index_path(store_path);
  bool valid = true;
  try {
    const LineScan side =
        scan_lines(side_path, 0, [&](std::string_view line, std::uint64_t) {
          out.entries.push_back(parse_entry(line));
        });
    if (side.end < side.size) fs::resize_file(side_path, side.end, ec);
  } catch (const std::exception&) {
    valid = false;
  }

  // Validate entries against the store file: strictly forward extents whose
  // newline stays inside the file, with nothing but whitespace between
  // them. Reading the (normally empty) gaps is the cheap proof that no
  // unindexed row hides between two indexed ones. A gap is read from the
  // byte ending the previous entry, and the last entry's end is read on its
  // own: that byte must be the row's newline, or the entry is short.
  auto blank = [&](std::uint64_t from, std::uint64_t to, bool after_entry) {
    std::string bytes(to - from, '\0');
    store.seekg(static_cast<std::streamoff>(from));
    store.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return store && is_ws_only(bytes) && (!after_entry || bytes[0] == '\n');
  };
  std::uint64_t covered = 0;  // bytes of the store accounted for so far
  for (const IndexEntry& e : out.entries) {
    if (!valid) break;
    const std::uint64_t end = e.offset + e.length;
    if (e.offset < covered || end >= store_size || e.length == 0 ||
        (e.offset > covered &&
         !blank(covered == 0 ? 0 : covered - 1, e.offset, covered > 0))) {
      valid = false;
      break;
    }
    covered = end + 1;  // +1 for the row's newline
  }
  if (valid && covered > 0 && !blank(covered - 1, covered, true)) {
    valid = false;
  }

  if (!valid) {
    // Stale sidecar: rebuild it from the store file, rewritten best-effort
    // (a read-only directory still gets a correct in-memory index).
    out.entries.clear();
    out.rebuilt = true;
    covered = 0;
    std::ofstream(side_path, std::ios::trunc);
  }

  // Index the rows past the validated entries: all of them on a rebuild,
  // else the rows appended without entries.
  const std::size_t known = out.entries.size();
  scan_lines(store_path, covered, [&](std::string_view line, std::uint64_t at) {
    const Value row = common::json::parse(line);
    if (!row.is_object()) throw std::runtime_error("row is not an object");
    out.entries.push_back(entry_from_row(row, at, line.size()));
  });
  if (out.entries.size() > known) {
    out.caught_up = !out.rebuilt;
    append_index_entries(store_path,
                         std::span(out.entries).subspan(known));
  }
  return out;
}

}  // namespace nbtisim::campaign
