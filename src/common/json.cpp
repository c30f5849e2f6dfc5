#include "common/json.h"

#include <algorithm>
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
  // The shortest round-trip form has k significant digits, and no text with
  // fewer reads back, so the search starts at max(15, k); %.17g always
  // reads back, so it is not checked.
  const char* const shortest =
      std::to_chars(buf, last, d, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* c = buf; c != shortest && *c != 'e'; ++c) {
    digits += *c >= '0' && *c <= '9';
  }
  char* end = buf;
  for (int precision = std::max(15, digits);; ++precision) {
    end = std::to_chars(buf, last, d, std::chars_format::general, precision)
              .ptr;
    if (precision >= 17) break;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == d) break;
  }
  return end;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over a string_view, errors carry a byte offset.
// It reports tokens to a handler: the tree Builder below for parse() and its
// projection, or a caller's Handler. A member the handler declines is read by
// the same code with nothing reported, so every reader throws alike.

class Parser {
 public:
  Parser(std::string_view text, Handler& out) : text_(text), out_(out) {
    keys_.reserve(32);
  }

  void parse_document() {
    parse_value(true);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
  }

 private:
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

  /// Reads one value, reporting its tokens when \p report.
  void parse_value(bool report) {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(report);
      case '[': return parse_array(report);
      case '"':
        if (!report) {
          read_string(nullptr);
        } else {
          out_.string_value(read_text(false));
        }
        return;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        if (report) out_.bool_value(true);
        return;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        if (report) out_.bool_value(false);
        return;
      case 'n':
        if (consume_literal("null")) {
          if (report) out_.null_value();
          return;
        }
        if (consume_literal("nan")) fail("bad literal (did you mean NaN?)");
        fail("bad literal");
      // Non-finite extension (see file comment of json.h).
      case 'I':
        if (!consume_literal("Infinity")) fail("bad literal");
        if (report) out_.number_value(std::numeric_limits<double>::infinity());
        return;
      case 'N':
        if (!consume_literal("NaN")) fail("bad literal");
        if (report) {
          out_.number_value(std::numeric_limits<double>::quiet_NaN());
        }
        return;
      default: return parse_number(report);
    }
  }

  void parse_object(bool report) {
    ++pos_;  // '{'
    if (report) out_.begin_object();
    // Keys of this object sit on keys_ from `first` on, so duplicates are
    // caught in declined members too.
    const std::size_t first = keys_.size();
    skip_ws();
    if (peek() != '}') {
      for (;;) {
        skip_ws();
        if (peek() != '"') fail("expected object key");
        const std::string_view key = read_text(true);
        for (std::size_t i = first; i < keys_.size(); ++i) {
          if (keys_[i] == key) {
            fail("duplicate object key \"" + std::string(key) + "\"");
          }
        }
        keys_.push_back(key);
        skip_ws();
        if (peek() != ':') fail("expected ':' after object key");
        ++pos_;
        parse_value(report && out_.key(key));
        skip_ws();
        const char c = peek();
        if (c == '}') break;
        ++pos_;
        if (c != ',') fail("expected ',' or '}' in object");
      }
      keys_.resize(first);
    }
    ++pos_;  // '}'
    if (report) out_.end_object();
  }

  void parse_array(bool report) {
    ++pos_;  // '['
    if (report) out_.begin_array();
    skip_ws();
    if (peek() != ']') {
      for (;;) {
        parse_value(report);
        skip_ws();
        const char c = peek();
        if (c == ']') break;
        ++pos_;
        if (c != ',') fail("expected ',' or ']' in array");
      }
    }
    ++pos_;  // ']'
    if (report) out_.end_array();
  }

  /// A string token's text (pos_ at its opening quote): a view of the input
  /// when it has no escapes, else of its decoded copy — kept until the parse
  /// ends for a \p key, else until the next string is read.
  std::string_view read_text(bool key) {
    for (std::size_t end = pos_ + 1; end < text_.size(); ++end) {
      const char c = text_[end];
      if (c == '"') {
        const std::string_view raw = text_.substr(pos_ + 1, end - pos_ - 1);
        pos_ = end + 1;
        return raw;
      }
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
    }
    // An escape to decode, or malformed input for read_string() to report.
    std::string& decoded = key ? decoded_keys_.emplace_front() : scratch_;
    decoded.clear();
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

  /// Checks the number grammar; converts the token only when \p report.
  void parse_number(bool report) {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == 'I') {
        if (!consume_literal("Infinity")) fail("bad literal");
        if (report) {
          out_.number_value(-std::numeric_limits<double>::infinity());
        }
        return;
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
    if (report) out_.number_value(read_double(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Handler& out_;
  std::vector<std::string_view> keys_;  ///< keys of the open objects
  std::forward_list<std::string> decoded_keys_;  ///< escaped keys, decoded
  std::string scratch_;  ///< the last escaped string value, decoded
};

/// Builds the Value tree of a document or, given a Projection, of the
/// members it keeps. Each value is constructed in place in its container;
/// an open container is the last value of its parent, so the pointers to
/// the open ones stay valid.
class Builder final : public Handler {
 public:
  explicit Builder(const Projection* keep) : keep_(keep) {}

  Value take() { return std::move(root_); }

  void begin_object() override {
    open_.push_back({nullptr, &add(Object{}).as_object()});
  }
  void end_object() override { open_.pop_back(); }
  void begin_array() override {
    open_.push_back({&add(Array{}).as_array(), nullptr});
  }
  void end_array() override { open_.pop_back(); }
  bool key(std::string_view key) override {
    if (!keeps(key)) return false;
    key_ = key;
    return true;
  }
  void string_value(std::string_view s) override { add(std::string(s)); }
  void number_value(double d) override { add(d); }
  void bool_value(bool b) override { add(b); }
  void null_value() override { add(nullptr); }

 private:
  /// An open container: an array or an object.
  struct Open {
    Array* array;
    Object* object;
  };

  /// Adds \p v to the open container (under the key just reported, in an
  /// object) or as the root.
  template <class T>
  Value& add(T&& v) {
    if (open_.empty()) return root_ = Value(std::forward<T>(v));
    const Open& top = open_.back();
    if (top.array != nullptr) return top.array->emplace_back(std::forward<T>(v));
    return top.object->emplace_back(std::string(key_), std::forward<T>(v))
        .second;
  }

  /// A projection narrows the document's members to its member and, when
  /// that is an object, the member's own to its names; nothing deeper.
  bool keeps(std::string_view key) const {
    if (keep_ == nullptr) return true;
    if (open_.size() == 1) return key == keep_->member;
    if (open_.size() != 2 || open_[0].object == nullptr || keep_->all) {
      return true;
    }
    return std::find(keep_->names.begin(), keep_->names.end(), key) !=
           keep_->names.end();
  }

  const Projection* keep_;  ///< nullptr: keep everything
  Value root_;
  std::vector<Open> open_;  ///< the open containers, outermost first
  std::string_view key_;    ///< the key just reported (the parser keeps it)
};

// ---------------------------------------------------------------------------
// Writer.

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
    case Value::Kind::String: write_string(out, v.as_string()); break;
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
        write_string(out, o[i].first);
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
  Builder tree(nullptr);
  Parser(text, tree).parse_document();
  return tree.take();
}

Value parse(std::string_view text, const Projection& keep) {
  Builder tree(&keep);
  Parser(text, tree).parse_document();
  return tree.take();
}

void parse(std::string_view text, Handler& handler) {
  Parser(text, handler).parse_document();
}

void write_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\b': escape = "\\b"; break;
      case '\f': escape = "\\f"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        // UTF-8 bytes pass through verbatim.
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    if (escape != nullptr) {
      out += escape;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    }
  }
  out.append(s.data() + plain, s.size() - plain);
  out += '"';
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
