// Unit tests for Prism-MW events and binary serialization (prism/event.h,
// prism/bytes.h).
#include "prism/event.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

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

TEST(ByteWriter, PatchU32OverwritesAReservedCount) {
  ByteWriter w;
  w.u32(0);
  w.str("ab");
  w.patch_u32(0, 7);
  const auto buffer = w.take();
  ByteReader r(buffer);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.str(), "ab");
  EXPECT_TRUE(r.exhausted());
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

TEST(Event, ToIdFollowsSetToAndDeserialize) {
  Event e("x");
  EXPECT_EQ(e.to_id(), kEmptyName);  // broadcast
  e.set_to("event.to-id.dst");
  const NameId dst = e.to_id();
  EXPECT_EQ(dst, intern("event.to-id.dst"));
  EXPECT_EQ(Event::deserialize(e.serialize()).to_id(), dst);
  Event by_id("y");
  by_id.set_to(dst);
  EXPECT_EQ(by_id.to(), "event.to-id.dst");
  by_id.set_to("");
  EXPECT_EQ(by_id.to_id(), kEmptyName);
  EXPECT_EQ(Event::deserialize(by_id.serialize()).to_id(), kEmptyName);
}

TEST(NameId, InternIsStableAndFindNeverInserts) {
  EXPECT_EQ(intern(""), kEmptyName);
  const NameId id = intern("name-id.stable");
  EXPECT_EQ(intern("name-id.stable"), id);
  EXPECT_EQ(find_name("name-id.stable"), id);
  EXPECT_EQ(name_of(id), "name-id.stable");
  EXPECT_EQ(find_name("name-id.never-interned"), kUnknownName);
  EXPECT_EQ(find_name("name-id.never-interned"), kUnknownName);
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

// --- wire equivalence of the copy-free encodings ----------------------------

/// One parameter of a randomly generated event; keys may repeat.
struct RawParam {
  std::string key;
  ParamValue value;
};

std::string random_text(util::Xoshiro256ss& rng, std::size_t max_len) {
  std::string out(rng.uniform_int(0, max_len), ' ');
  for (char& c : out) c = static_cast<char>(rng.uniform_int('a', 'z'));
  return out;
}

ParamValue random_value(util::Xoshiro256ss& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return rng.chance(0.5);
    case 1: return rng.uniform(-1e6, 1e6);
    case 2: return random_text(rng, 40);
    default: {
      std::vector<std::uint8_t> bytes(rng.uniform_int(0, 300));
      for (auto& b : bytes)
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      return bytes;
    }
  }
}

/// A random event built through the wire decoder, so it can hold what
/// set() alone never produces: duplicate keys (a __remote mark among
/// them), empty names, and zero parameters.
Event random_event(util::Xoshiro256ss& rng) {
  static const std::vector<std::string> kKeys = {
      "", "__remote", "memory_kb", "payload", "k", "a-much-longer-key-name"};
  std::vector<RawParam> params(rng.uniform_int(0, 6));
  for (RawParam& p : params) {
    p.key = kKeys[rng.index(kKeys.size())];
    p.value = random_value(rng);
  }
  // Half the events carry a bool remote mark (true or false) somewhere.
  if (!params.empty() && rng.chance(0.5))
    params[rng.index(params.size())] = {"__remote", rng.chance(0.5)};
  ByteWriter w;
  w.str(random_text(rng, 12));
  w.str(rng.chance(0.3) ? std::string() : random_text(rng, 24));
  w.str(rng.chance(0.3) ? std::string() : random_text(rng, 24));
  w.u32(static_cast<std::uint32_t>(params.size()));
  for (const RawParam& p : params) {
    w.str(p.key);
    w.u8(static_cast<std::uint8_t>(p.value.index()));
    switch (p.value.index()) {
      case 0: w.u8(std::get<bool>(p.value) ? 1 : 0); break;
      case 1: w.f64(std::get<double>(p.value)); break;
      case 2: w.str(std::get<std::string>(p.value)); break;
      case 3: w.bytes(std::get<std::vector<std::uint8_t>>(p.value)); break;
    }
  }
  const std::vector<std::uint8_t> wire = w.take();
  Event event = Event::deserialize(wire);
  EXPECT_EQ(event.serialize(), wire);  // the decoder keeps every parameter
  return event;
}

TEST(Event, MarkedSerializationMatchesCopySetSerialize) {
  util::Xoshiro256ss rng(20260417);
  const std::vector<std::string> marks = {"__remote", "", "payload", "new"};
  for (int trial = 0; trial < 2000; ++trial) {
    const Event event = random_event(rng);
    const std::string& key = marks[trial % marks.size()];
    const ParamValue value =
        key == "__remote" ? ParamValue(rng.chance(0.5)) : random_value(rng);
    Event copy = event;
    copy.set(key, value);
    ASSERT_EQ(event.serialize_with(key, value), copy.serialize())
        << "trial " << trial << " key '" << key << "'";
    ASSERT_EQ(std::bit_cast<std::uint64_t>(event.size_kb_with(key, value)),
              std::bit_cast<std::uint64_t>(copy.size_kb()))
        << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(event.size_kb()),
              std::bit_cast<std::uint64_t>(
                  Event::deserialize(event.serialize()).size_kb()));
  }
}

TEST(Event, MarkedSerializationOfAnEmptyEventAppendsTheMark) {
  const Event empty("");
  Event copy = empty;
  copy.set("__remote", true);
  EXPECT_EQ(empty.serialize_with("__remote", true), copy.serialize());
  EXPECT_TRUE(
      *Event::deserialize(empty.serialize_with("__remote", true))
           .get_bool("__remote"));
}

TEST(Event, SerializeReservesExactSize) {
  util::Xoshiro256ss rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Event event = random_event(rng);
    const std::vector<std::uint8_t> plain = event.serialize();
    EXPECT_EQ(plain.capacity(), plain.size());
    const std::vector<std::uint8_t> marked =
        event.serialize_with("__remote", true);
    EXPECT_EQ(marked.capacity(), marked.size());
  }
}

TEST(Event, DeserializeRejectsBogusParamCount) {
  // A header that claims 2^32 - 1 parameters: the parameter-list reserve is
  // capped by the bytes actually present, so decoding fails cleanly.
  for (const std::size_t trailing : {0u, 1u, 6u, 64u}) {
    ByteWriter w;
    w.str("evt");
    w.str("dst");
    w.str("src");
    w.u32(0xFFFFFFFFu);
    for (std::size_t i = 0; i < trailing; ++i) w.u8(0);
    const std::vector<std::uint8_t> wire = w.take();
    EXPECT_THROW(Event::deserialize(wire), DecodeError) << trailing;
  }
}

}  // namespace
}  // namespace dif::prism
