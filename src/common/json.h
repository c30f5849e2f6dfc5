/// \file json.h
/// \brief Dependency-free JSON value, parser and writer.
///
/// The campaign engine (src/campaign) speaks JSON at both ends — declarative
/// scenario specs in, JSONL result rows out — and the repo policy is "no new
/// third-party dependencies", so this is a small self-contained
/// implementation with two properties the engine relies on:
///
///   - **Deterministic round-trips.** Objects keep their members in insertion
///     order (a vector of pairs, not a map), and dump() formats numbers with
///     the shortest representation that parses back to the identical double.
///     Re-serializing a parsed document is byte-identical, which is what lets
///     the result store compare and hash rows textually.
///   - **Locale-free numbers.** Numbers are read with std::from_chars (strtod
///     only for out-of-range tokens, so overflow, underflow and subnormals
///     read as strtod reads them) and written with std::to_chars at
///     precision 15, 16 or 17, the first that reads back exactly. The
///     standard defines that output as printf's `%.*g` in the C locale, so
///     the bytes are C-locale `%.*g` whatever the process locale is.
///   - **One grammar.** parse() builds a Value tree, a projected parse()
///     builds only the members a Projection keeps, and a Handler receives
///     the tokens themselves (the store's sidecar index reads its lines
///     this way, with no tree). All three run the same parser, so they
///     accept the same documents and fail with the same message at the
///     same byte offset.
///   - **Documented non-finite policy.** RFC 8259 has no encoding for
///     infinities or NaN. By default dump() emits the literals `Infinity`,
///     `-Infinity` and `NaN` (the JSON5 convention), and parse() accepts
///     exactly those three tokens back — so every double round-trips.
///     Consumers that need strict RFC output pass NonFinite::Null, which
///     encodes every non-finite double as `null` (lossy but valid JSON for
///     external readers).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace nbtisim::common::json {

/// What a Value holds; Value::Kind.  Declared before the Array and Object
/// aliases, which its enumerators would otherwise shadow.
enum class Kind : unsigned char { Null, Bool, Number, String, Array, Object };

class Value;

/// JSON array.
using Array = std::vector<Value>;
/// JSON object in insertion order (deterministic round-trips; duplicate keys
/// are rejected by the parser and by set()).
using Object = std::vector<std::pair<std::string, Value>>;

/// A JSON document node: null, bool, number, string, array or object.
class Value {
 public:
  using Kind = json::Kind;

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Kind kind() const { return static_cast<Kind>(data_.index()); }
  bool is_null() const { return kind() == Kind::Null; }
  bool is_bool() const { return kind() == Kind::Bool; }
  bool is_number() const { return kind() == Kind::Number; }
  bool is_string() const { return kind() == Kind::String; }
  bool is_array() const { return kind() == Kind::Array; }
  bool is_object() const { return kind() == Kind::Object; }

  /// Checked accessors.
  /// \throws std::runtime_error on kind mismatch
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  std::string& as_string();
  Array& as_array();
  Object& as_object();

  /// Member lookup; nullptr when absent (or when this is not an object).
  const Value* find(std::string_view key) const;
  /// Member lookup.
  /// \throws std::runtime_error naming the missing \p key
  const Value& at(std::string_view key) const;
  /// Inserts or replaces a member (this must be an object or null; null
  /// becomes an empty object first).
  void set(std::string key, Value v);

  /// Typed member getters with defaults; absent key returns \p def, present
  /// key of the wrong kind throws like the checked accessors.
  double number_or(std::string_view key, double def) const;
  int int_or(std::string_view key, int def) const;
  bool bool_or(std::string_view key, bool def) const;
  std::string string_or(std::string_view key, std::string def) const;

  friend bool operator==(const Value&, const Value&) = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Accepts the non-finite literals documented in the file comment.
/// \throws std::runtime_error with byte offset on malformed input
Value parse(std::string_view text);

/// What a projected parse() keeps of a document: the top-level member
/// \p member and, of that member's own members, those named in \p names
/// (every one when \p all). A projection narrows objects only: a kept value
/// of any other kind, and each kept inner member, is read whole.
struct Projection {
  std::string member;
  bool all = true;
  std::vector<std::string> names;  ///< read when !all
};

/// Parses \p text like parse() and returns that result with every member
/// \p keep does not name removed. Members that are dropped are still read
/// byte for byte, so malformed input throws the same message at the same
/// offset as parse(); only no value is built for them.
/// \throws std::runtime_error with byte offset on malformed input
Value parse(std::string_view text, const Projection& keep);

/// Receives the tokens of one document from parse(text, Handler&), in
/// document order. Every member of an object is reported as key() followed
/// by its value's tokens; a container's value is everything between its
/// begin and end calls.
class Handler {
 public:
  virtual void begin_object() = 0;
  virtual void end_object() = 0;
  virtual void begin_array() = 0;
  virtual void end_array() = 0;
  /// The key of the next member, decoded. Returning false declines the
  /// member: the parser reads its value byte for byte (malformed input
  /// still throws) but reports none of its tokens.
  virtual bool key(std::string_view key) = 0;
  /// A string value, decoded; the view is valid during the call only.
  virtual void string_value(std::string_view s) = 0;
  /// A number, including the non-finite literals of the file comment.
  virtual void number_value(double d) = 0;
  virtual void bool_value(bool b) = 0;
  virtual void null_value() = 0;

 protected:
  ~Handler() = default;
};

/// Parses \p text with the grammar of parse(), reporting its tokens to
/// \p handler as they are read. An exception thrown by the handler ends the
/// parse and propagates.
/// \throws std::runtime_error with byte offset on malformed input
void parse(std::string_view text, Handler& handler);

/// Encoding policy for non-finite doubles (see file comment).
/// Literal round-trips (JSON5 tokens); Null is strict RFC 8259 output for
/// external consumers, at the cost of losing the non-finite value.
enum class NonFinite : unsigned char { Literal, Null };

/// Serializes \p v. indent < 0: compact single line; indent >= 0: pretty,
/// \p indent spaces per nesting level. Number and non-finite formatting as
/// documented in the file comment; \p nf selects the non-finite policy.
std::string dump(const Value& v, int indent = -1,
                 NonFinite nf = NonFinite::Literal);

/// Formats one double exactly as dump() would (shortest round-trip form;
/// non-finite per \p nf) — for numbers printed outside a document, such
/// as spec error messages and analysis::fmt_g's exact keys.
std::string format_number(double d, NonFinite nf = NonFinite::Literal);

/// Appends \p s to \p out as dump() writes a string: quoted, with `"`, `\`
/// and control characters escaped — for lines written without a Value
/// tree, such as the store's sidecar index entries.
void write_string(std::string& out, std::string_view s);

/// Reads and parses a JSON file.
/// \throws std::runtime_error when the file cannot be read or parsed
Value load_file(const std::string& path);

}  // namespace nbtisim::common::json
