#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <forward_list>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nbtisim::common::json {
namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw std::runtime_error(std::string("json: value is not ") + wanted);
}

/// Reads a number token the grammar has accepted. from_chars reports
/// overflow and underflow as out of range; strtod reads those tokens, so
/// they keep its ±HUGE_VAL, ±0 and subnormal results.
double read_double(std::string_view token) {
  double d = 0.0;
  if (std::from_chars(token.data(), token.data() + token.size(), d).ec ==
      std::errc::result_out_of_range) {
    d = std::strtod(std::string(token).c_str(), nullptr);
  }
  return d;
}

/// Longest output of write_number(): "-2.2250738585072014e-308" is 24.
constexpr std::size_t kNumberChars = 32;

/// Writes \p d, which must be finite, as format_number() documents and
/// returns the end of the text.
char* write_number(char* buf, double d) {
  char* const last = buf + kNumberChars;
  // Integral values within the exact-integer range print without a
  // fraction. The range is checked first: the cast is undefined beyond it.
  if (std::fabs(d) < 9.007199254740992e15 &&
      d == static_cast<double>(static_cast<long long>(d))) {
    return std::to_chars(buf, last, static_cast<long long>(d)).ptr;
  }
  // Shortest of %.15g, %.16g and %.17g that reads back as the same double.
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, last, d, std::chars_format::general, precision)
              .ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == d) break;
  }
  return end;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over a string_view, errors carry a byte offset.
// One grammar for parse() and its projection: a member the projection drops
// is read by the same code with nothing built, so both throw alike.

class Parser {
 public:
  Parser(std::string_view text, const Projection* keep)
      : text_(text), keep_(keep) {
    keys_.reserve(32);
  }

  Value parse_document() {
    Value v = parse_value(keep_ == nullptr ? Level::Whole : Level::Top);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  /// What parse_value() builds: the whole value, nothing (read only), or a
  /// projected object — the document (Top) or its kept member (Member).
  enum class Level : unsigned char { Whole, Skip, Top, Member };

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// The level at which member \p key of an object read at \p parent is
  /// read.
  Level member_level(Level parent, std::string_view key) const {
    switch (parent) {
      case Level::Top:
        return key == keep_->member ? Level::Member : Level::Skip;
      case Level::Member:
        if (keep_->all) return Level::Whole;
        for (const std::string& name : keep_->names) {
          if (name == key) return Level::Whole;
        }
        return Level::Skip;
      default: return parent;
    }
  }

  Value parse_value(Level lv) {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(lv);
      case '[':
        return parse_array(lv == Level::Skip ? Level::Skip : Level::Whole);
      case '"': {
        if (lv == Level::Skip) {
          read_string(nullptr);
          return Value();
        }
        std::string s;
        read_string(&s);
        return Value(std::move(s));
      }
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        if (consume_literal("nan")) fail("bad literal (did you mean NaN?)");
        fail("bad literal");
      // Non-finite extension (see file comment of json.h).
      case 'I':
        if (consume_literal("Infinity")) {
          return Value(std::numeric_limits<double>::infinity());
        }
        fail("bad literal");
      case 'N':
        if (consume_literal("NaN")) {
          return Value(std::numeric_limits<double>::quiet_NaN());
        }
        fail("bad literal");
      default: return parse_number(lv != Level::Skip);
    }
  }

  Value parse_object(Level lv) {
    ++pos_;  // '{'
    Object obj;
    // Keys of this object sit on keys_ from `first` on, so duplicates are
    // caught in dropped members too.
    const std::size_t first = keys_.size();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return lv == Level::Skip ? Value() : Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      const std::string_view key = parse_key();
      for (std::size_t i = first; i < keys_.size(); ++i) {
        if (keys_[i] == key) {
          fail("duplicate object key \"" + std::string(key) + "\"");
        }
      }
      keys_.push_back(key);
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      const Level member = member_level(lv, key);
      if (member == Level::Skip) {
        parse_value(Level::Skip);
      } else {
        obj.emplace_back(std::string(key), parse_value(member));
      }
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        keys_.resize(first);
        return lv == Level::Skip ? Value() : Value(std::move(obj));
      }
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array(Level lv) {
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return lv == Level::Skip ? Value() : Value(std::move(arr));
    }
    for (;;) {
      if (lv == Level::Skip) {
        parse_value(Level::Skip);
      } else {
        arr.push_back(parse_value(Level::Whole));
      }
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return lv == Level::Skip ? Value() : Value(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  /// An object key: a view of the text when it has no escapes, else of its
  /// decoded copy (kept until the parse ends).
  std::string_view parse_key() {
    const std::size_t open = pos_;
    const std::string_view raw = read_string(nullptr);
    if (raw.find('\\') == std::string_view::npos) return raw;
    pos_ = open;
    std::string& decoded = decoded_keys_.emplace_front();
    read_string(&decoded);
    return decoded;
  }

  /// Reads one string token (pos_ at its opening quote), appending the
  /// decoded bytes to \p out when given. Runs of bytes that need no
  /// decoding are appended at once. Returns the raw bytes between the
  /// quotes.
  std::string_view read_string(std::string* out) {
    const std::size_t open = ++pos_;  // past the opening quote
    for (;;) {
      std::size_t run = pos_;
      while (run < text_.size()) {
        const char c = text_[run];
        if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
          break;
        }
        ++run;
      }
      if (out != nullptr) out->append(text_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return text_.substr(open, pos_ - 1 - open);
      if (c != '\\') fail("raw control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      char plain = 0;
      switch (e) {
        case '"': plain = '"'; break;
        case '\\': plain = '\\'; break;
        case '/': plain = '/'; break;
        case 'b': plain = '\b'; break;
        case 'f': plain = '\f'; break;
        case 'n': plain = '\n'; break;
        case 'r': plain = '\r'; break;
        case 't': plain = '\t'; break;
        case 'u': {
          const unsigned cp = parse_codepoint();
          if (out != nullptr) append_utf8(*out, cp);
          continue;
        }
        default: fail("bad escape character");
      }
      if (out != nullptr) *out += plain;
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return v;
  }

  unsigned parse_codepoint() {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: pair required
      if (!consume_literal("\\u")) fail("unpaired high surrogate");
      const unsigned lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    return cp;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  /// Checks the number grammar; converts the token only when \p build.
  Value parse_number(bool build) {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == 'I') {
        if (consume_literal("Infinity")) {
          return Value(-std::numeric_limits<double>::infinity());
        }
        fail("bad literal");
      }
    }
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == before) fail("expected digits");
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits();
    }
    if (!build) return Value();
    return Value(read_double(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  const Projection* keep_;  ///< nullptr: keep everything
  std::vector<std::string_view> keys_;  ///< keys of the open objects
  std::forward_list<std::string> decoded_keys_;  ///< escaped keys, decoded
};

// ---------------------------------------------------------------------------
// Writer.

void write_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

void write_value(std::string& out, const Value& v, int indent, int depth,
                 NonFinite nf) {
  const auto newline_pad = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  switch (v.kind()) {
    case Value::Kind::Null: out += "null"; break;
    case Value::Kind::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Kind::Number: out += format_number(v.as_number(), nf); break;
    case Value::Kind::String: write_escaped(out, v.as_string()); break;
    case Value::Kind::Array: {
      const Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out += indent < 0 ? "," : ",";
        newline_pad(depth + 1);
        write_value(out, a[i], indent, depth + 1, nf);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Value::Kind::Object: {
      const Object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i) out += ",";
        newline_pad(depth + 1);
        write_escaped(out, o[i].first);
        out += indent < 0 ? ":" : ": ";
        write_value(out, o[i].second, indent, depth + 1, nf);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) kind_error("a bool");
  return std::get<bool>(data_);
}

double Value::as_number() const {
  if (!is_number()) kind_error("a number");
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  if (!is_string()) kind_error("a string");
  return std::get<std::string>(data_);
}

std::string& Value::as_string() {
  if (!is_string()) kind_error("a string");
  return std::get<std::string>(data_);
}

const Array& Value::as_array() const {
  if (!is_array()) kind_error("an array");
  return std::get<Array>(data_);
}

const Object& Value::as_object() const {
  if (!is_object()) kind_error("an object");
  return std::get<Object>(data_);
}

Array& Value::as_array() {
  if (!is_array()) kind_error("an array");
  return std::get<Array>(data_);
}

Object& Value::as_object() {
  if (!is_object()) kind_error("an object");
  return std::get<Object>(data_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(data_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (!is_object()) kind_error("an object");
  if (const Value* v = find(key)) return *v;
  throw std::runtime_error("json: missing key \"" + std::string(key) + "\"");
}

void Value::set(std::string key, Value v) {
  if (is_null()) data_ = Object{};
  if (!is_object()) kind_error("an object");
  for (auto& [k, existing] : std::get<Object>(data_)) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  std::get<Object>(data_).emplace_back(std::move(key), std::move(v));
}

double Value::number_or(std::string_view key, double def) const {
  const Value* v = find(key);
  return v == nullptr ? def : v->as_number();
}

int Value::int_or(std::string_view key, int def) const {
  const Value* v = find(key);
  return v == nullptr ? def : static_cast<int>(v->as_number());
}

bool Value::bool_or(std::string_view key, bool def) const {
  const Value* v = find(key);
  return v == nullptr ? def : v->as_bool();
}

std::string Value::string_or(std::string_view key, std::string def) const {
  const Value* v = find(key);
  return v == nullptr ? std::move(def) : v->as_string();
}

Value parse(std::string_view text) {
  return Parser(text, nullptr).parse_document();
}

Value parse(std::string_view text, const Projection& keep) {
  return Parser(text, &keep).parse_document();
}

std::string format_number(double d, NonFinite nf) {
  if (std::isnan(d)) return nf == NonFinite::Null ? "null" : "NaN";
  if (std::isinf(d)) {
    if (nf == NonFinite::Null) return "null";
    return d > 0.0 ? "Infinity" : "-Infinity";
  }
  char buf[kNumberChars];
  return std::string(buf, write_number(buf, d));
}

std::string dump(const Value& v, int indent, NonFinite nf) {
  std::string out;
  write_value(out, v, indent, 0, nf);
  return out;
}

Value load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("json: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  try {
    return parse(ss.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace nbtisim::common::json
