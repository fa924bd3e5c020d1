// Unit tests for the extensible parameter map (model/property_map.h).
#include "model/property_map.h"

#include <gtest/gtest.h>

namespace dif::model {
namespace {

TEST(PropertyMap, SetGetOverwrite) {
  PropertyMap map;
  EXPECT_TRUE(map.empty());
  map.set("battery", 0.8);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_DOUBLE_EQ(map.at("battery"), 0.8);
  map.set("battery", 0.5);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_DOUBLE_EQ(map.at("battery"), 0.5);
}

TEST(PropertyMap, GetReturnsNulloptWhenAbsent) {
  PropertyMap map;
  EXPECT_FALSE(map.get("missing").has_value());
  EXPECT_DOUBLE_EQ(map.get_or("missing", 7.0), 7.0);
  EXPECT_THROW((void)map.at("missing"), std::out_of_range);
}

TEST(PropertyMap, ContainsAndErase) {
  PropertyMap map;
  map.set("security", 3.0);
  EXPECT_TRUE(map.contains("security"));
  EXPECT_TRUE(map.erase("security"));
  EXPECT_FALSE(map.contains("security"));
  EXPECT_FALSE(map.erase("security"));
}

TEST(PropertyMap, IterationIsOrderedByName) {
  PropertyMap map;
  map.set("zeta", 1.0);
  map.set("alpha", 2.0);
  map.set("mid", 3.0);
  std::vector<std::string> names;
  for (const auto& [name, value] : map) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(PropertyMap, JsonRoundTrip) {
  PropertyMap map;
  map.set("a", 1.5);
  map.set("b", -2.0);
  const PropertyMap back = PropertyMap::from_json(map.to_json());
  EXPECT_EQ(map, back);
}

TEST(PropertyMap, EqualityComparesContents) {
  PropertyMap a, b;
  a.set("x", 1.0);
  b.set("x", 1.0);
  EXPECT_EQ(a, b);
  b.set("x", 2.0);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace dif::model
