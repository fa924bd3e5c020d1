// Unit tests for Deployment (model/deployment.h).
#include "model/deployment.h"

#include <gtest/gtest.h>

#include "model/deployment_model.h"

namespace dif::model {
namespace {

TEST(Deployment, StartsUnassigned) {
  Deployment d(3);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_FALSE(d.complete());
  EXPECT_FALSE(d.is_assigned(0));
  EXPECT_EQ(d.host_of(2), kNoHost);
}

TEST(Deployment, AssignUnassign) {
  Deployment d(2);
  d.assign(0, 5);
  EXPECT_TRUE(d.is_assigned(0));
  EXPECT_EQ(d.host_of(0), 5u);
  d.assign(1, 3);
  EXPECT_TRUE(d.complete());
  d.unassign(0);
  EXPECT_FALSE(d.complete());
}

TEST(Deployment, OutOfRangeThrows) {
  Deployment d(2);
  EXPECT_THROW((void)d.host_of(2), std::out_of_range);
  EXPECT_THROW(d.assign(5, 0), std::out_of_range);
}

TEST(Deployment, ComponentsOnHost) {
  Deployment d(std::vector<HostId>{0, 1, 0, 2, 0});
  EXPECT_EQ(d.components_on(0), (std::vector<ComponentId>{0, 2, 4}));
  EXPECT_EQ(d.components_on(1), (std::vector<ComponentId>{1}));
  EXPECT_TRUE(d.components_on(7).empty());
}

TEST(Deployment, DiffCountsChangedComponents) {
  const Deployment a(std::vector<HostId>{0, 1, 2});
  const Deployment b(std::vector<HostId>{0, 2, 2});
  EXPECT_EQ(Deployment::diff_count(a, b), 1u);
  EXPECT_EQ(Deployment::diff_count(a, a), 0u);
  const auto moves = Deployment::diff(a, b);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].component, 1u);
  EXPECT_EQ(moves[0].from, 1u);
  EXPECT_EQ(moves[0].to, 2u);
}

TEST(Deployment, DiffSizeMismatchThrows) {
  EXPECT_THROW((void)Deployment::diff_count(Deployment(2), Deployment(3)),
               std::invalid_argument);
  EXPECT_THROW(Deployment::diff(Deployment(2), Deployment(3)),
               std::invalid_argument);
}

TEST(Deployment, Equality) {
  const Deployment a(std::vector<HostId>{1, 2});
  const Deployment b(std::vector<HostId>{1, 2});
  const Deployment c(std::vector<HostId>{2, 1});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Deployment, DescribeUsesModelNames) {
  DeploymentModel m;
  m.add_host({.name = "alpha"});
  m.add_component({.name = "widget"});
  m.add_component({.name = "gadget"});
  Deployment d(2);
  d.assign(0, 0);
  const std::string text = d.describe(m);
  EXPECT_NE(text.find("widget -> alpha"), std::string::npos);
  EXPECT_NE(text.find("gadget -> (unassigned)"), std::string::npos);
}

}  // namespace
}  // namespace dif::model
