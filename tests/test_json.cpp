// Unit tests for the dependency-free JSON reader/writer (src/common/json.*).

#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/temp_store.h"

namespace nbtisim::common::json {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  const Value v = parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const Array& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
  EXPECT_EQ(dump(v), R"({"z":1,"a":2,"m":3})");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("[1,]"), std::runtime_error);
  EXPECT_THROW(parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(parse("tru"), std::runtime_error);
  EXPECT_THROW(parse("1 2"), std::runtime_error);        // trailing garbage
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse(R"({"a":1,"a":2})"), std::runtime_error);  // dup key
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string text = R"("line\nbreak \"quoted\" tab\t back\\slash")";
  const Value v = parse(text);
  EXPECT_EQ(v.as_string(), "line\nbreak \"quoted\" tab\t back\\slash");
  EXPECT_EQ(parse(dump(v)).as_string(), v.as_string());
}

TEST(JsonTest, UnicodeEscapes) {
  EXPECT_EQ(parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(parse(R"("\u00e9")").as_string(), "\xc3\xa9");      // e-acute
  EXPECT_EQ(parse(R"("\u20ac")").as_string(), "\xe2\x82\xac");  // euro sign
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");  // U+1F600 via surrogate pair
  EXPECT_THROW(parse(R"("\ud83d")"), std::runtime_error);  // lone surrogate
  EXPECT_THROW(parse(R"("\u12g4")"), std::runtime_error);  // bad hex digit
}

TEST(JsonTest, NumberRoundTripIsExact) {
  for (double d : {0.1, 1.0 / 3.0, 6.02214076e23, -1.5e-300, 12345.678,
                   9007199254740993.0, 1e-12}) {
    const std::string text = dump(Value(d));
    EXPECT_EQ(parse(text).as_number(), d) << text;
  }
}

TEST(JsonTest, IntegralNumbersPrintWithoutFraction) {
  EXPECT_EQ(dump(Value(42.0)), "42");
  EXPECT_EQ(dump(Value(-7.0)), "-7");
  EXPECT_EQ(dump(Value(0.5)), "0.5");
}

// The documented non-finite policy (json.h file comment): Infinity /
// -Infinity / NaN literals out, the same three literals accepted back in.
TEST(JsonTest, SpecialFloatsRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(dump(Value(inf)), "Infinity");
  EXPECT_EQ(dump(Value(-inf)), "-Infinity");
  EXPECT_EQ(dump(Value(std::nan(""))), "NaN");

  EXPECT_DOUBLE_EQ(parse("Infinity").as_number(), inf);
  EXPECT_DOUBLE_EQ(parse("-Infinity").as_number(), -inf);
  EXPECT_TRUE(std::isnan(parse("NaN").as_number()));

  const Value v = parse(R"({"hi": Infinity, "lo": -Infinity, "bad": NaN})");
  EXPECT_EQ(dump(v), R"({"hi":Infinity,"lo":-Infinity,"bad":NaN})");
  EXPECT_TRUE(std::isnan(parse(dump(v)).at("bad").as_number()));
}

TEST(JsonTest, RejectsLowercaseNonFiniteLiterals) {
  EXPECT_THROW(parse("nan"), std::runtime_error);
  EXPECT_THROW(parse("infinity"), std::runtime_error);
}

// The strict-interchange policy: NonFinite::Null encodes every non-finite
// number as null, producing RFC 8259 output for external consumers (the
// query/serve layer). Finite numbers are untouched.
TEST(JsonTest, NonFiniteNullPolicyEmitsStrictJson) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(dump(Value(inf), -1, NonFinite::Null), "null");
  EXPECT_EQ(dump(Value(-inf), -1, NonFinite::Null), "null");
  EXPECT_EQ(dump(Value(std::nan("")), -1, NonFinite::Null), "null");
  EXPECT_EQ(dump(Value(2.5), -1, NonFinite::Null), "2.5");

  EXPECT_EQ(format_number(inf, NonFinite::Null), "null");
  EXPECT_EQ(format_number(std::nan(""), NonFinite::Null), "null");
  EXPECT_EQ(format_number(inf), "Infinity");  // default stays the literal

  // Nested occurrences are replaced wherever they sit, and the result
  // reparses with plain nulls in their place.
  const Value v = parse(R"({"a":[1,NaN,{"b":-Infinity}],"c":Infinity})");
  const std::string strict = dump(v, -1, NonFinite::Null);
  EXPECT_EQ(strict, R"({"a":[1,null,{"b":null}],"c":null})");
  const Value back = parse(strict);
  EXPECT_TRUE(back.at("c").is_null());

  // Pretty-printing composes with the policy.
  EXPECT_EQ(dump(parse("[NaN]"), 1, NonFinite::Null), "[\n null\n]");
}

TEST(JsonTest, ParseDumpParseIsIdentity) {
  const std::string text =
      R"({"name":"x","vals":[1,2.5,null,true],"nested":{"k":"v"},"empty":[],"eo":{}})";
  const Value v = parse(text);
  EXPECT_EQ(dump(v), text);
  EXPECT_EQ(parse(dump(v)), v);
}

TEST(JsonTest, PrettyPrintIsReparseable) {
  const Value v = parse(R"({"a":[1,2],"b":{"c":true}})");
  const std::string pretty = dump(v, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty), v);
}

TEST(JsonTest, CheckedAccessorsThrowOnKindMismatch) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), std::runtime_error);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.at("k"), std::runtime_error);
  EXPECT_EQ(v.find("k"), nullptr);
  const Value obj = parse(R"({"a":1})");
  EXPECT_THROW(obj.at("missing"), std::runtime_error);
  EXPECT_DOUBLE_EQ(obj.number_or("a", 7.0), 1.0);
  EXPECT_DOUBLE_EQ(obj.number_or("b", 7.0), 7.0);
  EXPECT_THROW(obj.at("a").as_string(), std::runtime_error);
}

TEST(JsonTest, SetInsertsAndReplaces) {
  Value v;  // null -> becomes an object on first set
  v.set("a", 1.0);
  v.set("b", "x");
  v.set("a", 2.0);
  EXPECT_EQ(dump(v), R"({"a":2,"b":"x"})");
}

TEST(JsonTest, LoadFileReportsPathOnErrors) {
  EXPECT_THROW(load_file("/nonexistent/x.json"), std::runtime_error);
  const std::string path = testsupport::temp_path("nbtisim_json_test.json");
  {
    std::ofstream f(path);
    f << R"({"ok": [1, 2, 3]})";
  }
  EXPECT_EQ(load_file(path).at("ok").as_array().size(), 3u);
  {
    std::ofstream f(path);
    f << "{broken";
  }
  try {
    load_file(path);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

/// Records the tokens it is handed as text, declining members named "skip".
class Recorder final : public Handler {
 public:
  std::string log;

  void begin_object() override { log += '{'; }
  void end_object() override { log += '}'; }
  void begin_array() override { log += '['; }
  void end_array() override { log += ']'; }
  bool key(std::string_view k) override {
    log += "k:" + std::string(k) + ' ';
    return k != "skip";
  }
  void string_value(std::string_view s) override {
    log += "s:" + std::string(s) + ' ';
  }
  void number_value(double d) override {
    log += "n:" + format_number(d) + ' ';
  }
  void bool_value(bool b) override { log += b ? "true " : "false "; }
  void null_value() override { log += "null "; }
};

TEST(JsonTest, HandlerReceivesTokensInDocumentOrder) {
  Recorder r;
  parse(R"({"a":[1,"x\ty",{"b":null}],"skip":{"deep":[true]},"c":-Infinity,
           "\u0064":false})",
        r);
  EXPECT_EQ(r.log,
            "{k:a [n:1 s:x\ty {k:b null }]k:skip k:c n:-Infinity k:d false }");
}

// A declined member is read by the same grammar: malformed input inside it
// throws the message, offset included, that parse() throws.
TEST(JsonTest, DeclinedMembersFailLikeParse) {
  for (const char* text :
       {R"({"skip":[1,,2]})", R"({"skip":{"a":1,"a":2}})",
        R"({"skip":"\x"})", R"({"skip":nan})", R"({"skip":[1 2]})",
        R"({"skip":{"a":1)"}) {
    SCOPED_TRACE(text);
    std::string want;
    try {
      parse(std::string_view(text));
    } catch (const std::runtime_error& e) {
      want = e.what();
    }
    ASSERT_FALSE(want.empty());
    Recorder r;
    try {
      parse(text, r);
      ADD_FAILURE() << "no throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
}

TEST(JsonTest, WriteStringMatchesDump) {
  for (const std::string& s :
       {std::string(), std::string("plain"), std::string("q\"b\\s/"),
        std::string("\b\f\n\r\t"), std::string("\x01\x1f\x7f"),
        std::string("caf\xc3\xa9 \xf0\x9f\x98\x80"),
        std::string("nul\0inside", 10)}) {
    std::string out = "prefix";
    write_string(out, s);
    EXPECT_EQ(out, "prefix" + dump(Value(s)));
    EXPECT_EQ(parse(out.substr(6)).as_string(), s);
  }
}

}  // namespace
}  // namespace nbtisim::common::json
