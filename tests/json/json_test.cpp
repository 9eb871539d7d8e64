// Tests for curb::json: the RFC 8259 reader, its typed accessors, and the
// escape/number writer primitives.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "curb/json/json.hpp"

namespace json = curb::json;

namespace {

TEST(JsonParser, ParsesScalarsAndNesting) {
  const json::Value doc =
      json::parse(R"({"a":1.5,"b":[true,null,"x\n"],"c":{"d":-2e3}})");
  ASSERT_EQ(doc.type, json::Value::Type::kObject);
  EXPECT_DOUBLE_EQ(doc.find("a")->number, 1.5);
  const json::Value* b = doc.find("b");
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_EQ(b->array[1].type, json::Value::Type::kNull);
  EXPECT_EQ(b->array[2].str, "x\n");
  EXPECT_DOUBLE_EQ(doc.find("c")->find("d")->number, -2000.0);
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse(R"({"a":})"), std::runtime_error);
  EXPECT_THROW(json::parse(R"({"a":1} extra)"), std::runtime_error);
  EXPECT_THROW(json::parse(R"(["unterminated)"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":1,}"), std::runtime_error);
}

TEST(JsonParser, EnforcesRfc8259) {
  // Raw control bytes inside strings must be escaped.
  EXPECT_THROW(json::parse("[\"a\nb\"]"), std::runtime_error);
  EXPECT_THROW(json::parse("[\"a\tb\"]"), std::runtime_error);
  EXPECT_THROW(json::parse(std::string{"[\"a\x01z\"]"}), std::runtime_error);
  // Number grammar: no leading zeros, '+', bare '.', or missing digits.
  for (const char* bad : {"01", "+1", ".5", "1.", "1e", "-", "1e+", "0x10", "1e999"}) {
    EXPECT_THROW(json::parse(bad), std::runtime_error) << bad;
  }
  for (const char* good : {"0", "-0", "10", "1.25", "-1e3", "2E+2", "5e-1"}) {
    EXPECT_NO_THROW(json::parse(good)) << good;
  }
  // Unpaired surrogates and bad hex digits.
  EXPECT_THROW(json::parse(R"(["\ud83d"])"), std::runtime_error);
  EXPECT_THROW(json::parse(R"(["\ude00"])"), std::runtime_error);
  EXPECT_THROW(json::parse(R"(["\uzzzz"])"), std::runtime_error);
  // Nesting is bounded: deep documents throw instead of overflowing the stack.
  EXPECT_NO_THROW(json::parse(std::string(100, '[') + std::string(100, ']')));
  EXPECT_THROW(json::parse(std::string(2'000'000, '[')), std::runtime_error);
}

TEST(JsonParser, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(json::parse(R"("\u00e9")").str, "\xC3\xA9");
  EXPECT_EQ(json::parse(R"("\u20AC")").str, "\xE2\x82\xAC");
  EXPECT_EQ(json::parse(R"("\ud83d\ude00")").str, "\xF0\x9F\x98\x80");
  EXPECT_EQ(json::parse("\"\xC3\xA9\"").str, "\xC3\xA9");  // raw UTF-8 passes
}

TEST(JsonParser, ParsesStreams) {
  std::istringstream in{" [1, 2]\n"};
  EXPECT_EQ(json::parse(in).array.size(), 2u);
  std::istringstream empty;
  EXPECT_THROW(json::parse(empty), std::runtime_error);
}

TEST(JsonParser, TypedAccessorsRejectWrongTypesAndInexactIntegers) {
  const json::Value doc = json::parse(
      R"({"s":"x","b":true,"i":-42,"f":1.5,"big":9007199254740994,"edge":9007199254740991})");
  EXPECT_EQ(doc.find("s")->as_string(), "x");
  EXPECT_TRUE(doc.find("b")->as_bool());
  EXPECT_EQ(doc.find("i")->as_int(), -42);
  EXPECT_EQ(doc.find("edge")->as_uint(), 9007199254740991u);
  EXPECT_EQ(doc.as_object().size(), 6u);
  EXPECT_THROW((void)doc.find("s")->as_number(), std::runtime_error);
  EXPECT_THROW((void)doc.find("i")->as_string(), std::runtime_error);
  EXPECT_THROW((void)doc.find("i")->as_uint(), std::runtime_error);
  EXPECT_THROW((void)doc.find("f")->as_int(), std::runtime_error);
  EXPECT_THROW((void)doc.find("big")->as_int(), std::runtime_error);
  EXPECT_THROW((void)doc.find("b")->as_object(), std::runtime_error);
}

TEST(JsonWriter, EscapeRoundTripsThroughParse) {
  const std::string nasty = std::string{"q\" b\\ n\n t\t c\x01 \xC3\xA9"};
  EXPECT_EQ(json::parse("\"" + json::escape(nasty) + "\"").str, nasty);
}

TEST(JsonWriter, NumberIsShortestRoundTrip) {
  EXPECT_EQ(json::number(10.0), "10");
  EXPECT_EQ(json::number(-1.5), "-1.5");
  EXPECT_EQ(json::number(0.1), "0.1");
  EXPECT_EQ(json::parse(json::number(1.0 / 3.0)).number, 1.0 / 3.0);
}

}  // namespace
