#include "campaign/index.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
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
std::uint64_t parse_extent(double d, const char* key) {
  if (!(d >= 0.0 && d <= 9007199254740992.0) || d != std::floor(d)) {
    throw std::runtime_error(std::string("index: bad extent \"") + key +
                             "\"");
  }
  return static_cast<std::uint64_t>(d);
}

/// Reads sidecar lines into entries as the parser reports their tokens,
/// with no tree. Throws on a schema mismatch (the file comment's schema):
/// the caller treats that as a stale sidecar, not an error.
class EntryReader final : public common::json::Handler {
 public:
  IndexEntry read(std::string_view line) {
    entry_ = IndexEntry();
    metrics_.clear();
    depth_ = 0;
    field_ = Field::None;
    required_ = 0;
    common::json::parse(line, *this);
    if (required_ != (kHash | kOffset | kLength)) {
      throw std::runtime_error("index: entry lacks \"h\", \"o\" or \"l\"");
    }
    // One exactly sized copy instead of the growth steps of metrics_.
    entry_.metrics.assign(std::make_move_iterator(metrics_.begin()),
                          std::make_move_iterator(metrics_.end()));
    return std::move(entry_);
  }

  void begin_object() override {
    if (depth_ == 0 || (depth_ == 1 && field_ == Field::Metrics)) {
      ++depth_;
      return;
    }
    reject();
  }
  void end_object() override { --depth_; }
  void begin_array() override { reject(); }
  void end_array() override { reject(); }

  bool key(std::string_view key) override {
    if (depth_ == 2) {
      metrics_.emplace_back(std::string(key), 0.0);
      return true;
    }
    field_ = field_of(key);
    return field_ != Field::None;
  }

  void string_value(std::string_view s) override {
    std::string* text = nullptr;
    if (depth_ == 1) {
      switch (field_) {
        case Field::Hash:
          text = &entry_.hash;
          required_ |= kHash;
          break;
        case Field::Netlist: text = &entry_.netlist; break;
        case Field::Ras: text = &entry_.ras; break;
        case Field::Analysis: text = &entry_.analysis; break;
        default: break;
      }
    }
    if (text == nullptr) reject();
    text->assign(s);
  }

  void number_value(double d) override {
    if (depth_ == 2) {
      metrics_.back().second = d;
      return;
    }
    if (depth_ == 1) {
      switch (field_) {
        case Field::Offset:
          entry_.offset = parse_extent(d, "o");
          required_ |= kOffset;
          return;
        case Field::Length:
          entry_.length = parse_extent(d, "l");
          required_ |= kLength;
          return;
        case Field::TActive: entry_.t_active = d; return;
        case Field::TStandby: entry_.t_standby = d; return;
        case Field::Years: entry_.years = d; return;
        default: break;
      }
    }
    reject();
  }

  void bool_value(bool) override { reject(); }
  void null_value() override { reject(); }

 private:
  /// The member whose value the parser reports next, at depth 1.
  enum class Field : unsigned char {
    None, Hash, Offset, Length, Netlist, Ras, TActive, TStandby, Years,
    Analysis, Metrics
  };
  static constexpr unsigned kHash = 1, kOffset = 2, kLength = 4;

  static Field field_of(std::string_view key) {
    if (key == "h") return Field::Hash;
    if (key == "o") return Field::Offset;
    if (key == "l") return Field::Length;
    if (key == "n") return Field::Netlist;
    if (key == "r") return Field::Ras;
    if (key == "ta") return Field::TActive;
    if (key == "ts") return Field::TStandby;
    if (key == "y") return Field::Years;
    if (key == "a") return Field::Analysis;
    if (key == "m") return Field::Metrics;
    return Field::None;
  }

  [[noreturn]] static void reject() {
    throw std::runtime_error("index: entry member of the wrong kind");
  }

  IndexEntry entry_;
  std::vector<std::pair<std::string, double>> metrics_;
  int depth_ = 0;  ///< 1 inside the entry, 2 inside its "m"
  Field field_ = Field::None;
  unsigned required_ = 0;  ///< which of "h", "o" and "l" were read
};

/// Appends \p e to \p out exactly as dump_entry() returns it.
void write_entry(std::string& out, const IndexEntry& e) {
  using common::json::format_number;
  using common::json::write_string;
  out += "{\"h\":";
  write_string(out, e.hash);
  out += ",\"o\":";
  out += format_number(static_cast<double>(e.offset));
  out += ",\"l\":";
  out += format_number(static_cast<double>(e.length));
  const auto text = [&out](const char* key, const std::string& s) {
    if (s.empty()) return;
    out += key;
    write_string(out, s);
  };
  const auto number = [&out](const char* key, double d) {
    if (std::isnan(d)) return;
    out += key;
    out += format_number(d);
  };
  text(",\"n\":", e.netlist);
  text(",\"r\":", e.ras);
  number(",\"ta\":", e.t_active);
  number(",\"ts\":", e.t_standby);
  number(",\"y\":", e.years);
  text(",\"a\":", e.analysis);
  if (!e.metrics.empty()) {
    out += ",\"m\":{";
    for (std::size_t i = 0; i < e.metrics.size(); ++i) {
      if (i > 0) out += ',';
      write_string(out, e.metrics[i].first);
      out += ':';
      out += format_number(e.metrics[i].second);
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

const double* IndexEntry::metric(std::string_view name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return &value;
  }
  return nullptr;
}

ExtentReader::~ExtentReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool ExtentReader::open() {
  if (fd_ < 0) fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  return fd_ >= 0;
}

std::string_view ExtentReader::read(std::uint64_t offset,
                                    std::uint64_t length) {
  if (!open()) throw std::runtime_error("cannot open " + path_);
  buf_.resize(length);
  for (std::size_t got = 0; got < length;) {
    const ssize_t n = ::pread(fd_, buf_.data() + got, length - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("short read in " + path_);
    got += static_cast<std::size_t>(n);
  }
  return buf_;
}

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
      if (value.is_number()) e.metrics.emplace_back(name, value.as_number());
    }
  }
  return e;
}

std::string dump_entry(const IndexEntry& e) {
  std::string out;
  write_entry(out, e);
  return out;
}

IndexEntry parse_entry(std::string_view line) {
  return EntryReader().read(line);
}

bool append_index_entries(const std::string& store_path,
                          std::span<const IndexEntry> entries) {
  if (entries.empty()) return true;
  std::string block;
  for (const IndexEntry& e : entries) {
    write_entry(block, e);
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

  ExtentReader store(store_path);
  if (!store.open()) return out;

  // Read the sidecar: damage means the whole sidecar is stale; an
  // interrupted append at its end is cut, so the catch-up below appends
  // after whole lines.
  const std::string side_path = index_path(store_path);
  bool valid = true;
  try {
    EntryReader reader;
    const LineScan side =
        scan_lines(side_path, 0, [&](std::string_view line, std::uint64_t) {
          out.entries.push_back(reader.read(line));
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
  // own: that byte must be the row's newline, or the entry is short. The
  // entries are strictly forward, so every read lies past the one before.
  auto blank = [&](std::uint64_t from, std::uint64_t to, bool after_entry) {
    try {
      const std::string_view bytes = store.read(from, to - from);
      return is_ws_only(bytes) && (!after_entry || bytes[0] == '\n');
    } catch (const std::runtime_error&) {
      return false;
    }
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
