// Unit tests for Prism-MW events and binary serialization (prism/event.h,
// prism/bytes.h).
#include "prism/event.h"

#include <gtest/gtest.h>

namespace dif::prism {
namespace {

TEST(ByteWriterReader, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-3.14159);
  w.str("hello");
  w.bytes(std::vector<std::uint8_t>{1, 2, 3});
  const auto buffer = w.take();

  ByteReader r(buffer);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), -3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReader, TruncatedInputThrows) {
  ByteWriter w;
  w.u32(7);
  const auto buffer = w.take();
  ByteReader r(buffer);
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), DecodeError);

  ByteReader r2(buffer);
  EXPECT_THROW((void)r2.u64(), DecodeError);
}

TEST(ByteReader, BogusLengthPrefixThrows) {
  ByteWriter w;
  w.u32(1'000'000);  // claims a huge string follows
  const auto buffer = w.take();
  ByteReader r(buffer);
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(ByteWriter, RawAppendsWithoutPrefix) {
  ByteWriter inner;
  inner.u8(1);
  inner.u8(2);
  ByteWriter outer;
  const auto tail = inner.take();
  outer.raw(tail);
  EXPECT_EQ(outer.size(), 2u);
}

TEST(Event, ParameterAccessors) {
  Event e("app.msg");
  e.set("count", 4.0);
  e.set("label", std::string("xyz"));
  e.set("flag", true);
  e.set("blob", std::vector<std::uint8_t>{9, 8});
  EXPECT_TRUE(e.has("count"));
  EXPECT_FALSE(e.has("missing"));
  EXPECT_DOUBLE_EQ(*e.get_double("count"), 4.0);
  EXPECT_EQ(*e.get_string("label"), "xyz");
  EXPECT_TRUE(*e.get_bool("flag"));
  EXPECT_EQ(e.get_bytes("blob")->size(), 2u);
  // Type-mismatched access returns empty, not garbage.
  EXPECT_FALSE(e.get_double("label").has_value());
  EXPECT_EQ(e.get_string("count"), nullptr);
}

TEST(Event, SetOverwritesInPlace) {
  Event e("x");
  e.set("k", 1.0);
  e.set("k", 2.0);
  EXPECT_EQ(e.params().size(), 1u);
  EXPECT_DOUBLE_EQ(*e.get_double("k"), 2.0);
}

TEST(Event, SerializationRoundTripsAllTypes) {
  Event e("migrate");
  e.set_to("__admin@3");
  e.set_from("__deployer");
  e.set("flag", false);
  e.set("weight", 2.75);
  e.set("name", std::string("component-x"));
  e.set("state", std::vector<std::uint8_t>{0, 255, 127, 1});

  const Event back = Event::deserialize(e.serialize());
  EXPECT_EQ(back.name(), "migrate");
  EXPECT_EQ(back.to(), "__admin@3");
  EXPECT_EQ(back.from(), "__deployer");
  EXPECT_EQ(back.params().size(), 4u);
  EXPECT_FALSE(*back.get_bool("flag"));
  EXPECT_DOUBLE_EQ(*back.get_double("weight"), 2.75);
  EXPECT_EQ(*back.get_string("name"), "component-x");
  EXPECT_EQ(*back.get_bytes("state"),
            (std::vector<std::uint8_t>{0, 255, 127, 1}));
}

TEST(Event, SerializationPreservesParamOrder) {
  Event e("x");
  e.set("z", 1.0);
  e.set("a", 2.0);
  const Event back = Event::deserialize(e.serialize());
  EXPECT_EQ(back.params()[0].first, "z");
  EXPECT_EQ(back.params()[1].first, "a");
}

TEST(Event, DeserializeRejectsGarbage) {
  const std::vector<std::uint8_t> garbage{1, 2, 3};
  EXPECT_THROW(Event::deserialize(garbage), DecodeError);
}

TEST(Event, SizeGrowsWithPayload) {
  Event small("m");
  Event large("m");
  large.set("payload", std::vector<std::uint8_t>(10 * 1024));
  EXPECT_GT(large.size_kb(), small.size_kb() + 9.0);
}

TEST(Event, EmptyEventSerializes) {
  const Event back = Event::deserialize(Event("").serialize());
  EXPECT_EQ(back.name(), "");
  EXPECT_TRUE(back.params().empty());
}

}  // namespace
}  // namespace dif::prism
