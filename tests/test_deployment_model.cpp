// Unit tests for the deployment-architecture model (model/deployment_model.h).
#include "model/deployment_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "check/static_analyzer.h"
#include "model/constraints.h"
#include "util/rng.h"
#include "test_names.h"

namespace dif::model {
namespace {

DeploymentModel two_hosts_two_components() {
  DeploymentModel m;
  m.add_host({.name = "h0", .memory_capacity = 100.0});
  m.add_host({.name = "h1", .memory_capacity = 50.0});
  m.add_component({.name = "c0", .memory_size = 10.0});
  m.add_component({.name = "c1", .memory_size = 5.0});
  return m;
}

TEST(DeploymentModel, AddAndLookup) {
  DeploymentModel m = two_hosts_two_components();
  EXPECT_EQ(m.host_count(), 2u);
  EXPECT_EQ(m.component_count(), 2u);
  EXPECT_EQ(m.host(0).name, "h0");
  EXPECT_EQ(m.component(1).name, "c1");
  EXPECT_EQ(m.host_by_name("h1"), 1u);
  EXPECT_EQ(m.component_by_name("c0"), 0u);
  EXPECT_THROW((void)m.host_by_name("nope"), std::out_of_range);
  EXPECT_THROW((void)m.component_by_name("nope"), std::out_of_range);
  EXPECT_THROW((void)m.host(9), std::out_of_range);
}

TEST(DeploymentModel, PhysicalLinksAreSymmetric) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 100.0,
                             .delay_ms = 5.0});
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.9);
  EXPECT_DOUBLE_EQ(m.physical_link(1, 0).reliability, 0.9);
  EXPECT_TRUE(m.connected(0, 1));
  EXPECT_TRUE(m.connected(1, 0));
}

TEST(DeploymentModel, SelfLinkIsPerfect) {
  DeploymentModel m = two_hosts_two_components();
  EXPECT_DOUBLE_EQ(m.physical_link(0, 0).reliability, 1.0);
  EXPECT_TRUE(std::isinf(m.physical_link(1, 1).bandwidth));
  EXPECT_FALSE(m.connected(0, 0));  // "connected" means distinct hosts
  EXPECT_THROW(m.set_physical_link(0, 0, {}), std::invalid_argument);
}

TEST(DeploymentModel, UnsetLinkIsDisconnected) {
  DeploymentModel m = two_hosts_two_components();
  EXPECT_FALSE(m.connected(0, 1));
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.0);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).bandwidth, 0.0);
}

TEST(DeploymentModel, ClearLinkDisconnects) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 10.0});
  m.clear_physical_link(1, 0);
  EXPECT_FALSE(m.connected(0, 1));
}

TEST(DeploymentModel, SingleFieldLinkUpdates) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 10.0,
                             .delay_ms = 1.0});
  m.set_link_reliability(0, 1, 0.75);
  m.set_link_bandwidth(1, 0, 20.0);
  m.set_link_delay(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.75);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).bandwidth, 20.0);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).delay_ms, 2.5);
}

TEST(DeploymentModel, LogicalLinksSymmetricAndSelfRejected) {
  DeploymentModel m = two_hosts_two_components();
  m.set_logical_link(0, 1, {.frequency = 4.0, .avg_event_size = 1.5});
  EXPECT_DOUBLE_EQ(m.logical_link(1, 0).frequency, 4.0);
  EXPECT_THROW(m.set_logical_link(1, 1, {}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.logical_link(0, 0).frequency, 0.0);
}

TEST(DeploymentModel, InteractionsCacheListsPositiveFrequencies) {
  DeploymentModel m;
  m.add_host({.name = "h"});
  for (int i = 0; i < 4; ++i)
    m.add_component({.name = test::numbered("c", i)});
  m.set_logical_link(0, 1, {.frequency = 2.0, .avg_event_size = 1.0});
  m.set_logical_link(2, 3, {.frequency = 3.0, .avg_event_size = 1.0});
  m.set_logical_link(0, 3, {.frequency = 0.0, .avg_event_size = 1.0});
  const auto interactions = m.interactions();
  ASSERT_EQ(interactions.size(), 2u);
  EXPECT_DOUBLE_EQ(m.total_interaction_frequency(), 5.0);
}

TEST(DeploymentModel, InteractionsCacheInvalidatedOnChange) {
  DeploymentModel m = two_hosts_two_components();
  m.set_logical_link(0, 1, {.frequency = 1.0, .avg_event_size = 1.0});
  EXPECT_EQ(m.interactions().size(), 1u);
  m.clear_logical_link(0, 1);
  EXPECT_EQ(m.interactions().size(), 0u);
  m.add_component({.name = "c2"});
  m.set_logical_link(0, 2, {.frequency = 2.0, .avg_event_size = 1.0});
  EXPECT_EQ(m.interactions().size(), 1u);
  EXPECT_EQ(m.interactions()[0].b, 2u);
}

TEST(DeploymentModel, GrowingTopologyPreservesLinks) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.8, .bandwidth = 50.0});
  m.set_logical_link(0, 1, {.frequency = 7.0, .avg_event_size = 0.5});
  m.add_host({.name = "h2", .memory_capacity = 10.0});
  m.add_component({.name = "c2", .memory_size = 1.0});
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.8);
  EXPECT_DOUBLE_EQ(m.logical_link(0, 1).frequency, 7.0);
  EXPECT_FALSE(m.connected(0, 2));
}

TEST(DeploymentModel, ListenersFireAndRemove) {
  DeploymentModel m = two_hosts_two_components();
  int events = 0;
  const std::size_t id = m.add_listener([&](ModelEvent) { ++events; });
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 1.0});
  m.set_logical_link(0, 1, {.frequency = 1.0, .avg_event_size = 1.0});
  m.notify_entity_changed();
  EXPECT_EQ(events, 3);
  m.remove_listener(id);
  m.notify_entity_changed();
  EXPECT_EQ(events, 3);
}

// A model's parameter domains are checked by the static analyzer's
// param-range rule; these pin its verdict on the model's own edge cases.
bool has_param_range_error(const DeploymentModel& m) {
  const check::CheckReport report = check::run_checks(m, ConstraintSet());
  for (const check::Diagnostic& d : report.diagnostics())
    if (d.rule == check::Rule::kParamRange &&
        d.severity == check::Severity::kError)
      return true;
  return false;
}

TEST(DeploymentModel, ValidateAcceptsSaneModel) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 1.0});
  EXPECT_FALSE(has_param_range_error(m));
}

TEST(DeploymentModel, ValidateRejectsOutOfRangeReliability) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 1.5, .bandwidth = 1.0});
  EXPECT_TRUE(has_param_range_error(m));
}

TEST(DeploymentModel, ValidateRejectsNegativeParameters) {
  DeploymentModel m;
  m.add_host({.name = "h", .memory_capacity = -1.0});
  EXPECT_TRUE(has_param_range_error(m));

  DeploymentModel m2 = two_hosts_two_components();
  m2.set_logical_link(0, 1, {.frequency = -2.0, .avg_event_size = 1.0});
  EXPECT_TRUE(has_param_range_error(m2));
}

TEST(DeploymentModel, ModelLevelProperties) {
  DeploymentModel m;
  m.properties().set("monitoring_window", 5.0);
  EXPECT_DOUBLE_EQ(m.properties().at("monitoring_window"), 5.0);
}

}  // namespace
}  // namespace dif::model

namespace dif::model {
namespace {

TEST(DeploymentModel, RejectsDuplicateNames) {
  DeploymentModel m;
  m.add_host({.name = "h"});
  EXPECT_THROW(m.add_host({.name = "h"}), std::invalid_argument);
  m.add_component({.name = "c"});
  EXPECT_THROW(m.add_component({.name = "c"}), std::invalid_argument);
  // Host and component namespaces are independent.
  EXPECT_NO_THROW(m.add_component({.name = "h"}));
}

}  // namespace
}  // namespace dif::model

namespace dif::model {
namespace {

Host named_host(std::string name) {
  Host host;
  host.name = std::move(name);
  return host;
}

PhysicalLink make_link(double reliability, double bandwidth,
                       double delay_ms = 0.0) {
  PhysicalLink link;
  link.reliability = reliability;
  link.bandwidth = bandwidth;
  link.delay_ms = delay_ms;
  return link;
}

/// A link is stored when a field is anything but +0.0 (NaN and -0.0
/// included) or it carries properties; written independently of the model.
bool stored_by_fields(const PhysicalLink& link) {
  const auto nonzero = [](double x) {
    return x != 0.0 || std::isnan(x) || std::signbit(x);
  };
  return nonzero(link.reliability) || nonzero(link.bandwidth) ||
         nonzero(link.delay_ms) || !link.properties.empty();
}

/// An independent reference for the link store: the stored links by
/// canonical pair, kept by applying each write's documented semantics.
struct Reference {
  std::size_t hosts = 0;
  std::map<std::pair<HostId, HostId>, PhysicalLink> links;

  template <typename Update>
  void write(HostId a, HostId b, Update&& update) {
    const auto key = std::minmax(a, b);
    const auto it = links.find(key);
    PhysicalLink link = it == links.end() ? PhysicalLink{} : it->second;
    update(link);
    if (stored_by_fields(link))
      links[key] = std::move(link);
    else
      links.erase(key);
  }
};

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same_link(const PhysicalLink& x, const PhysicalLink& y) {
  return same_bits(x.reliability, y.reliability) &&
         same_bits(x.bandwidth, y.bandwidth) &&
         same_bits(x.delay_ms, y.delay_ms) && x.properties == y.properties;
}

/// Every view of the store must agree with the reference: the per-host
/// rows, the unchecked table, physical_link()'s canonicalization and the
/// canonical-order walk.
void expect_store_matches(const DeploymentModel& m, const Reference& ref,
                          int step) {
  ASSERT_EQ(m.host_count(), ref.hosts) << "after step " << step;
  std::vector<std::vector<HostId>> rows(ref.hosts);
  for (const auto& [key, link] : ref.links) {
    rows[key.first].push_back(key.second);
    rows[key.second].push_back(key.first);
  }
  const PhysicalLinkTable table = m.physical_link_table();
  for (HostId h = 0; h < m.host_count(); ++h) {
    std::sort(rows[h].begin(), rows[h].end());
    const std::span<const HostId> got = m.physical_neighbors(h);
    ASSERT_EQ(std::vector<HostId>(got.begin(), got.end()), rows[h])
        << "host " << h << " after step " << step;
    for (HostId other = 0; other < m.host_count(); ++other) {
      if (other == h) continue;
      const auto it = ref.links.find(std::minmax(h, other));
      const PhysicalLink& expected =
          it == ref.links.end() ? kAbsentLink : it->second;
      ASSERT_TRUE(same_link(table.at(h, other), expected))
          << "pair " << h << "," << other << " after step " << step;
      const bool disconnected =
          expected.bandwidth <= 0.0 && expected.reliability <= 0.0;
      ASSERT_TRUE(same_link(m.physical_link(h, other),
                            disconnected ? kAbsentLink : expected))
          << "pair " << h << "," << other << " after step " << step;
    }
  }
  auto next = ref.links.begin();
  m.for_each_physical_link([&](HostId a, HostId b, const PhysicalLink& link) {
    ASSERT_NE(next, ref.links.end()) << "after step " << step;
    EXPECT_EQ(std::make_pair(a, b), next->first) << "after step " << step;
    EXPECT_TRUE(same_link(link, next->second)) << "after step " << step;
    ++next;
  });
  EXPECT_EQ(next, ref.links.end()) << "after step " << step;
}

double draw_field(util::Xoshiro256ss& rng) {
  constexpr double kValues[] = {0.0, -0.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                0.5, 1.0, -2.0};
  return kValues[rng.index(std::size(kValues))];
}

/// One random write to both the model and the reference: whole links,
/// single fields (flipping pairs between stored and absent, NaN, -0.0),
/// properties-only links, clears and new hosts.
void random_write(DeploymentModel& m, Reference& ref,
                  util::Xoshiro256ss& rng) {
  const std::size_t k = m.host_count();
  const auto a = static_cast<HostId>(rng.index(k));
  auto b = static_cast<HostId>(rng.index(k - 1));
  if (b >= a) ++b;
  const auto set_field = [&](double PhysicalLink::*field) {
    const double value = draw_field(rng);
    ref.write(a, b, [&](PhysicalLink& link) { link.*field = value; });
    return value;
  };
  switch (rng.index(8)) {
    case 0: {
      PhysicalLink link = make_link(draw_field(rng), draw_field(rng),
                                    draw_field(rng));
      if (rng.chance(0.2)) link.properties.set("security", 1.0);
      ref.write(a, b, [&](PhysicalLink& entry) { entry = link; });
      m.set_physical_link(a, b, std::move(link));
      break;
    }
    case 1:
      m.set_link_reliability(a, b, set_field(&PhysicalLink::reliability));
      break;
    case 2:
      m.set_link_bandwidth(a, b, set_field(&PhysicalLink::bandwidth));
      break;
    case 3:
      m.set_link_delay(a, b, set_field(&PhysicalLink::delay_ms));
      break;
    case 4:
    case 5:
      ref.write(a, b, [](PhysicalLink& entry) { entry = PhysicalLink{}; });
      m.clear_physical_link(a, b);
      break;
    case 6:
      m.add_host(named_host(test::numbered("x", k)));
      ++ref.hosts;
      break;
    default: {
      PhysicalLink link;  // all +0.0: stored for its properties alone
      link.properties.set("cost", 2.0);
      ref.write(a, b, [&](PhysicalLink& entry) { entry = link; });
      m.set_physical_link(a, b, std::move(link));
      break;
    }
  }
}

DeploymentModel model_with_hosts(int hosts, Reference& ref) {
  DeploymentModel m;
  for (int h = 0; h < hosts; ++h)
    m.add_host(named_host(test::numbered("h", h)));
  ref.hosts = static_cast<std::size_t>(hosts);
  return m;
}

TEST(HostAdjacency, MatchesReferenceMapUnderRandomWrites) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Xoshiro256ss rng(seed);
    Reference ref;
    DeploymentModel m = model_with_hosts(5, ref);
    for (int step = 0; step < 400; ++step) {
      random_write(m, ref, rng);
      expect_store_matches(m, ref, step);
    }
  }
}

TEST(HostAdjacency, CopiesKeepIndependentIndexes) {
  util::Xoshiro256ss rng(9);
  Reference ref;
  DeploymentModel m = model_with_hosts(8, ref);
  for (int step = 0; step < 60; ++step) random_write(m, ref, rng);
  expect_store_matches(m, ref, 0);
  DeploymentModel copy = m;
  Reference copy_ref = ref;
  expect_store_matches(copy, copy_ref, 0);
  for (int step = 0; step < 60; ++step) {
    random_write(copy, copy_ref, rng);
    random_write(m, ref, rng);
    expect_store_matches(copy, copy_ref, step);
    expect_store_matches(m, ref, step);
  }
}

TEST(HostAdjacency, NeighborsAreSortedAndSymmetric) {
  DeploymentModel m;
  for (int h = 0; h < 4; ++h) m.add_host(named_host(test::numbered("h", h)));
  m.set_physical_link(3, 1, make_link(0.9, 10.0));
  m.set_physical_link(1, 0, make_link(0.5, 5.0));
  m.set_physical_link(2, 1, make_link(0.0, 0.0, 4.0));  // delay alone
  const auto n1 = m.physical_neighbors(1);
  EXPECT_EQ(std::vector<HostId>(n1.begin(), n1.end()),
            (std::vector<HostId>{0, 2, 3}));
  const auto n3 = m.physical_neighbors(3);
  EXPECT_EQ(std::vector<HostId>(n3.begin(), n3.end()),
            (std::vector<HostId>{1}));
  // A monitor write that zeroes one field of a link keeps it stored.
  m.set_link_reliability(1, 3, 0.0);
  EXPECT_EQ(m.physical_neighbors(3).size(), 1u);
  m.clear_physical_link(1, 3);
  EXPECT_TRUE(m.physical_neighbors(3).empty());
  EXPECT_THROW((void)m.physical_neighbors(4), std::out_of_range);
}

TEST(HostAdjacency, LinkReferencesSurviveWritesToStoredLinks) {
  Reference ref;
  DeploymentModel m = model_with_hosts(40, ref);
  for (HostId h = 1; h < 40; ++h)
    m.set_physical_link(h - 1, h, make_link(0.5, 1.0));
  const PhysicalLink& link = m.physical_link(0, 1);
  // Monitor-style writes to every stored link, and a new host, move no
  // stored entry.
  for (HostId h = 1; h < 40; ++h) m.set_link_reliability(h - 1, h, 0.25);
  m.add_host(named_host("h40"));
  EXPECT_EQ(&m.physical_link(0, 1), &link);
  EXPECT_EQ(link.reliability, 0.25);
  EXPECT_EQ(m.physical_link(38, 39).bandwidth, 1.0);
  // Absent and cleared pairs read the one shared all-zero link.
  EXPECT_EQ(&m.physical_link(0, 2), &kAbsentLink);
  EXPECT_EQ(&m.physical_link_table().at(39, 40), &kAbsentLink);
  m.clear_physical_link(0, 1);
  EXPECT_EQ(&m.physical_link(0, 1), &kAbsentLink);
  EXPECT_FALSE(m.connected(0, 1));
  EXPECT_TRUE(m.physical_neighbors(0).empty());
}

}  // namespace
}  // namespace dif::model
