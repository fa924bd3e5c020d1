// Unit tests for Brick/Component/Connector/Architecture (prism/brick.h,
// prism/architecture.h) and local event routing.
#include "prism/architecture.h"

#include <gtest/gtest.h>

#include "prism/monitors.h"

namespace dif::prism {
namespace {

/// Test component that records everything it handles.
class Probe final : public Component {
 public:
  explicit Probe(std::string name) : Component(std::move(name)) {}
  void handle(const Event& event) override { handled.push_back(event); }
  [[nodiscard]] std::string type_name() const override { return "probe"; }
  std::vector<Event> handled;
};

struct Fixture {
  sim::Simulator sim;
  SimScaffold scaffold{sim};
  Architecture arch{"test-arch", scaffold, 0};
  Probe* a = nullptr;
  Probe* b = nullptr;
  Probe* c = nullptr;
  Connector* bus = nullptr;

  Fixture() {
    a = &static_cast<Probe&>(arch.add_component(std::make_unique<Probe>("a")));
    b = &static_cast<Probe&>(arch.add_component(std::make_unique<Probe>("b")));
    c = &static_cast<Probe&>(arch.add_component(std::make_unique<Probe>("c")));
    bus = &arch.add_connector(std::make_unique<Connector>("bus"));
    arch.weld(*a, *bus);
    arch.weld(*b, *bus);
    arch.weld(*c, *bus);
  }
};

TEST(Architecture, RejectsDuplicatesAndNulls) {
  Fixture f;
  EXPECT_THROW(f.arch.add_component(std::make_unique<Probe>("a")),
               std::invalid_argument);
  EXPECT_THROW(f.arch.add_component(nullptr), std::invalid_argument);
  EXPECT_THROW(f.arch.add_connector(std::make_unique<Connector>("bus")),
               std::invalid_argument);
}

TEST(Architecture, FindAndNames) {
  Fixture f;
  EXPECT_EQ(f.arch.find_component(intern("b")), f.b);
  EXPECT_EQ(f.arch.find_component(intern("zzz")), nullptr);
  EXPECT_EQ(f.arch.find_connector("bus"), f.bus);
  EXPECT_EQ(f.arch.component_names().size(), 3u);
  EXPECT_EQ(f.arch.component_count(), 3u);
}

TEST(Architecture, FindByIdTracksAttachAndDetach) {
  Fixture f;
  const NameId b = f.b->name_id();
  EXPECT_EQ(f.arch.find_component(b), f.b);
  EXPECT_EQ(f.arch.find_component(kEmptyName), nullptr);
  EXPECT_EQ(f.arch.find_component(kUnknownName), nullptr);
  auto detached = f.arch.detach_component(intern("b"));
  EXPECT_EQ(f.arch.find_component(b), nullptr);
  EXPECT_EQ(f.arch.find_component(f.a->name_id()), f.a);
  Component& back = f.arch.add_component(std::move(detached));
  EXPECT_EQ(f.arch.find_component(b), &back);
  EXPECT_EQ(f.arch.find_component(intern("b")), &back);
}

TEST(Routing, BroadcastReachesAllButSender) {
  Fixture f;
  f.a->send(Event("ping"));
  f.sim.run();
  EXPECT_TRUE(f.a->handled.empty());
  ASSERT_EQ(f.b->handled.size(), 1u);
  ASSERT_EQ(f.c->handled.size(), 1u);
  EXPECT_EQ(f.b->handled[0].name(), "ping");
  EXPECT_EQ(f.b->handled[0].from(), "a");  // provenance stamped by send()
}

TEST(Routing, DirectedEventReachesOnlyDestination) {
  Fixture f;
  Event e("direct");
  e.set_to("c");
  f.a->send(std::move(e));
  f.sim.run();
  EXPECT_TRUE(f.b->handled.empty());
  ASSERT_EQ(f.c->handled.size(), 1u);
}

TEST(Routing, DirectedToUnknownGoesToUndeliverableHandler) {
  Fixture f;
  std::vector<Event> undelivered;
  f.arch.set_undeliverable_handler(
      [&](const Event& e) { undelivered.push_back(e); });
  Event e("lost");
  e.set_to("ghost");
  // Inject through the connector as if from outside.
  f.arch.post_to(e.to_id(), e);
  f.sim.run();
  ASSERT_EQ(undelivered.size(), 1u);
  EXPECT_EQ(undelivered[0].name(), "lost");
}

TEST(Routing, DeliveryIsDeferredThroughScaffold) {
  Fixture f;
  f.a->send(Event("ping"));
  // Nothing handled until the simulator runs the dispatch.
  EXPECT_TRUE(f.b->handled.empty());
  f.sim.run();
  EXPECT_EQ(f.b->handled.size(), 1u);
}

TEST(Routing, ComponentDetachedBeforeDispatchIsBuffered) {
  Fixture f;
  std::vector<Event> undelivered;
  f.arch.set_undeliverable_handler(
      [&](const Event& e) { undelivered.push_back(e); });
  Event e("inflight");
  e.set_to("b");
  f.a->send(std::move(e));
  // Detach b while its delivery sits in the scaffold queue.
  auto detached = f.arch.detach_component(intern("b"));
  ASSERT_NE(detached, nullptr);
  f.sim.run();
  ASSERT_EQ(undelivered.size(), 1u);
  EXPECT_EQ(undelivered[0].name(), "inflight");
}

TEST(Architecture, DetachRemovesWeldsAndOwnership) {
  Fixture f;
  auto detached = f.arch.detach_component(intern("a"));
  ASSERT_NE(detached, nullptr);
  EXPECT_EQ(detached->architecture(), nullptr);
  EXPECT_EQ(f.arch.find_component(intern("a")), nullptr);
  EXPECT_EQ(f.arch.component_count(), 2u);
  EXPECT_EQ(f.bus->welded().size(), 2u);
  EXPECT_EQ(f.arch.detach_component(intern("a")), nullptr);  // already gone

  // The detached component can join another architecture.
  Architecture other("other", f.scaffold, 1);
  Component& readded = other.add_component(std::move(detached));
  EXPECT_EQ(readded.architecture(), &other);
}

TEST(Architecture, UnweldStopsDelivery) {
  Fixture f;
  f.arch.unweld(*f.b, *f.bus);
  f.a->send(Event("ping"));
  f.sim.run();
  EXPECT_TRUE(f.b->handled.empty());
  EXPECT_EQ(f.c->handled.size(), 1u);
}

TEST(Architecture, WeldIsIdempotent) {
  Fixture f;
  f.arch.weld(*f.a, *f.bus);  // already welded
  EXPECT_EQ(f.bus->welded().size(), 3u);
  f.b->send(Event("ping"));
  f.sim.run();
  EXPECT_EQ(f.a->handled.size(), 1u);  // no duplicate delivery
}

TEST(Architecture, WeldForeignBrickThrows) {
  Fixture f;
  Architecture other("other", f.scaffold, 1);
  Probe& foreign =
      static_cast<Probe&>(other.add_component(std::make_unique<Probe>("f")));
  EXPECT_THROW(f.arch.weld(foreign, *f.bus), std::invalid_argument);
}

TEST(Architecture, TotalMemorySumsComponents) {
  Fixture f;
  // Probe uses the default 1 KB footprint.
  EXPECT_DOUBLE_EQ(f.arch.total_memory_kb(), 3.0);
}

TEST(Monitors, AttachedMonitorSeesTraffic) {
  Fixture f;
  auto monitor = std::make_shared<EvtFrequencyMonitor>(f.scaffold);
  f.b->add_monitor(monitor);
  f.a->send(Event("app.data"));
  f.sim.run();
  EXPECT_EQ(monitor->events_observed(), 1u);
  f.b->remove_monitor(monitor.get());
  f.a->send(Event("app.data"));
  f.sim.run();
  EXPECT_EQ(monitor->events_observed(), 1u);
}

TEST(Scaffold, InlineScaffoldDispatchesImmediately) {
  InlineScaffold scaffold;
  int fired = 0;
  scaffold.dispatch([&] { ++fired; });
  EXPECT_EQ(fired, 1);
  scaffold.schedule(10.0, [&] { ++fired; });  // timers unsupported: dropped
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace dif::prism
