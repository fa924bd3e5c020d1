// Dedicated unit tests for DistributionConnector routing semantics
// (prism/distribution.h): directed forwarding via the location table,
// mediation for non-peers, broadcast flooding, remote-mark handling, and
// undeliverable accounting.
#include "prism/distribution.h"

#include <gtest/gtest.h>

#include "prism/architecture.h"
#include "test_names.h"

namespace dif::prism {
namespace {

class Probe final : public Component {
 public:
  explicit Probe(std::string name) : Component(std::move(name)) {}
  void handle(const Event& event) override { received.push_back(event); }
  [[nodiscard]] std::string type_name() const override { return "probe"; }
  std::vector<Event> received;
};

/// Three hosts in a star around host 1 (0 and 2 are not connected).
struct Star {
  sim::Simulator sim;
  sim::SimNetwork net{sim, 3, 1};
  SimScaffold scaffold{sim};
  std::vector<std::unique_ptr<Architecture>> archs;
  std::vector<DistributionConnector*> d;
  std::vector<Probe*> probes;

  Star() {
    net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 1e6, .delay_ms = 1});
    net.set_link(1, 2, {.reliability = 1.0, .bandwidth = 1e6, .delay_ms = 1});
    for (model::HostId h = 0; h < 3; ++h) {
      archs.push_back(std::make_unique<Architecture>(
          test::numbered("arch", h), scaffold, h));
      d.push_back(&static_cast<DistributionConnector&>(
          archs[h]->add_connector(std::make_unique<DistributionConnector>(
              test::numbered("d", h), net, h))));
      probes.push_back(&static_cast<Probe&>(archs[h]->add_component(
          std::make_unique<Probe>(test::numbered("p", h)))));
      archs[h]->weld(*probes[h], *d[h]);
    }
    d[0]->add_peer(1);
    d[1]->add_peer(0);
    d[1]->add_peer(2);
    d[2]->add_peer(1);
    for (auto* connector : d)
      for (model::HostId h = 0; h < 3; ++h)
        connector->set_location(intern(test::numbered("p", h)), h);
  }
};

TEST(Distribution, DirectedEventFollowsLocationTable) {
  Star star;
  Event e("msg");
  e.set_to("p1");
  star.probes[0]->send(std::move(e));
  star.sim.run();
  ASSERT_EQ(star.probes[1]->received.size(), 1u);
  EXPECT_TRUE(star.probes[0]->received.empty());
  EXPECT_TRUE(star.probes[2]->received.empty());
}

TEST(Distribution, NonPeerDestinationRidesTheMediator) {
  Star star;
  star.d[0]->set_mediator(1);
  // Host 2 is not a peer of host 0; mediation via host 1. At host 1 the
  // destination is absent, so the admin-less architecture drops it unless
  // an undeliverable handler re-routes — install one that resends.
  star.archs[1]->set_undeliverable_handler([&](const Event& event) {
    star.d[1]->resend(event);
  });
  Event e("msg");
  e.set_to("p2");
  star.probes[0]->send(std::move(e));
  star.sim.run();
  ASSERT_EQ(star.probes[2]->received.size(), 1u);
  EXPECT_EQ(star.probes[2]->received[0].name(), "msg");
}

TEST(Distribution, NoMediatorMeansUndeliverable) {
  Star star;
  // No mediator set on d0; p2 is not reachable as a peer.
  Event e("msg");
  e.set_to("p2");
  star.probes[0]->send(std::move(e));
  star.sim.run();
  EXPECT_TRUE(star.probes[2]->received.empty());
  EXPECT_EQ(star.d[0]->undeliverable_remote(), 1u);
}

TEST(Distribution, UnknownLocationCountsUndeliverable) {
  Star star;
  Event e("msg");
  e.set_to("ghost");
  star.probes[0]->send(std::move(e));
  star.sim.run();
  EXPECT_EQ(star.d[0]->undeliverable_remote(), 1u);
}

TEST(Distribution, BroadcastFloodsPeersExactlyOnce) {
  Star star;
  star.probes[1]->send(Event("announce"));  // host 1 peers: 0 and 2
  star.sim.run();
  EXPECT_EQ(star.probes[0]->received.size(), 1u);
  EXPECT_EQ(star.probes[2]->received.size(), 1u);
  // No re-flooding: the remote mark stops hosts 0/2 from forwarding back.
  EXPECT_TRUE(star.probes[1]->received.empty());
}

TEST(Distribution, RemoteEventsAreNotReforwarded) {
  Star star;
  // An event arriving at host 1 addressed to a component host 1 believes is
  // on host 0 must not bounce: route() skips forwarding for remote-marked
  // events, and only an explicit resend() re-enables it.
  star.d[1]->set_location(intern("p0"), 0);
  Event e("msg");
  e.set_to("p0");
  star.probes[2]->send(std::move(e));  // 2 -> (location) 0, not a peer; no mediator on d2
  star.sim.run();
  EXPECT_EQ(star.d[2]->undeliverable_remote(), 1u);
  EXPECT_TRUE(star.probes[0]->received.empty());
}

TEST(Distribution, LocalDestinationNotForwarded) {
  Star star;
  const auto sent_before = star.net.stats().sent;
  Event e("msg");
  e.set_to("p0");
  star.probes[0]->send(std::move(e));  // p0 is local to host 0... sender==dest
  star.sim.run();
  // Destination == sender: deliver_locally skips the sender, and the event
  // must not leak onto the network either.
  EXPECT_EQ(star.net.stats().sent, sent_before);
}

TEST(Distribution, PeerManagement) {
  Star star;
  EXPECT_EQ(star.d[1]->peers().size(), 2u);
  star.d[1]->remove_peer(2);
  EXPECT_EQ(star.d[1]->peers().size(), 1u);
  star.d[1]->add_peer(2);
  star.d[1]->add_peer(2);  // idempotent
  EXPECT_EQ(star.d[1]->peers().size(), 2u);
  star.d[1]->add_peer(1);  // self: ignored
  EXPECT_EQ(star.d[1]->peers().size(), 2u);
}

TEST(Distribution, LocationTableUpdates) {
  Star star;
  EXPECT_EQ(star.d[0]->location(intern("p2")), 2u);
  star.d[0]->set_location(intern("p2"), 1);
  EXPECT_EQ(star.d[0]->location(intern("p2")), 1u);
  EXPECT_FALSE(star.d[0]->location(intern("ghost")).has_value());
}

}  // namespace
}  // namespace dif::prism
