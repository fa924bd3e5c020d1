// Unit tests for the JSON parser/writer (util/json.h).
#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dif::util::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.25").as_number(), -3.25);
  EXPECT_DOUBLE_EQ(parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, WhitespaceTolerated) {
  const Value v = parse("  {\n\t\"a\" :\r 1 , \"b\": [ 1 ,2 ]}  ");
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.0);
  EXPECT_EQ(v.at("b").as_array().size(), 2u);
}

TEST(JsonParse, NestedStructures) {
  const Value v = parse(R"({"a":{"b":{"c":[1,{"d":true}]}}})");
  EXPECT_TRUE(
      v.at("a").at("b").at("c").as_array()[1].at("d").as_bool());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(parse(R"("a\\b")").as_string(), "a\\b");
  EXPECT_EQ(parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(parse(R"("a\tb")").as_string(), "a\tb");
  EXPECT_EQ(parse(R"("a\/b")").as_string(), "a/b");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_TRUE(parse("{}").as_object().empty());
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(parse(""), JsonError);
  EXPECT_THROW(parse("{"), JsonError);
  EXPECT_THROW(parse("[1,]"), JsonError);
  EXPECT_THROW(parse("{\"a\":}"), JsonError);
  EXPECT_THROW(parse("tru"), JsonError);
  EXPECT_THROW(parse("\"unterminated"), JsonError);
  EXPECT_THROW(parse("1 2"), JsonError);   // trailing garbage
  EXPECT_THROW(parse("{'a':1}"), JsonError);
}

TEST(JsonDump, RoundTripsCompoundDocument) {
  const std::string doc =
      R"({"arr":[1,2.5,"three",null,true],"num":-7,"obj":{"x":"y"}})";
  const Value parsed = parse(doc);
  const Value reparsed = parse(parsed.dump());
  EXPECT_EQ(parsed, reparsed);
}

TEST(JsonDump, IntegersPrintWithoutDecimal) {
  EXPECT_EQ(Value(5).dump(), "5");
  EXPECT_EQ(Value(-17.0).dump(), "-17");
  EXPECT_EQ(Value(2.5).dump(), "2.5");
}

TEST(JsonDump, EscapesControlCharacters) {
  const Value v = Value(std::string("a\nb\"c"));
  EXPECT_EQ(v.dump(), "\"a\\nb\\\"c\"");
  EXPECT_EQ(parse(v.dump()).as_string(), "a\nb\"c");
}

TEST(JsonDump, PrettyPrintParsesBack) {
  const Value v = parse(R"({"a":[1,2],"b":{"c":true}})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty), v);
}

TEST(JsonValue, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(1.5).is_number());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());
}

TEST(JsonValue, AccessorsThrowOnTypeMismatch) {
  EXPECT_THROW((void)Value(1.0).as_string(), JsonError);
  EXPECT_THROW((void)Value("x").as_number(), JsonError);
  EXPECT_THROW((void)Value().as_array(), JsonError);
  EXPECT_THROW((void)Value(true).at("k"), JsonError);
}

TEST(JsonValue, AtThrowsOnMissingKey) {
  const Value v = parse(R"({"a":1})");
  EXPECT_THROW((void)v.at("b"), JsonError);
}

TEST(JsonValue, FindAndDefaults) {
  const Value v = parse(R"({"n":3,"s":"str"})");
  EXPECT_TRUE(v.find("n").has_value());
  EXPECT_FALSE(v.find("missing").has_value());
  EXPECT_DOUBLE_EQ(v.number_or("n", -1.0), 3.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", -1.0), -1.0);
  EXPECT_EQ(v.string_or("s", "d"), "str");
  EXPECT_EQ(v.string_or("missing", "d"), "d");
  // Type-mismatched member falls back to the default too.
  EXPECT_DOUBLE_EQ(v.number_or("s", -1.0), -1.0);
}

TEST(JsonDump, NanBecomesNull) {
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
}

TEST(JsonParse, DeeplyNestedArrays) {
  std::string doc;
  for (int i = 0; i < 100; ++i) doc += '[';
  doc += '1';
  for (int i = 0; i < 100; ++i) doc += ']';
  const Value* v = nullptr;
  Value parsed = parse(doc);
  v = &parsed;
  for (int i = 0; i < 100; ++i) v = &v->as_array()[0];
  EXPECT_DOUBLE_EQ(v->as_number(), 1.0);
}

}  // namespace
}  // namespace dif::util::json
