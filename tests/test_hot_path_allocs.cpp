// Count-based gates on hot paths:
//  * the Prism event path: heap allocations per directed application event
//    sent from a component on one host to a component on another, through
//    two DistributionConnectors on a 2-host SimNetwork (serialize → send →
//    deliver → deserialize → dispatch);
//  * the hill climb's probe loop: a warm-started search allocates no more
//    when it is allowed more evaluations;
//  * the deployment model's heap at fleet scale: it holds the physical
//    links that exist, not a k-by-k matrix.
//
// Wall-clock floors swing with the machine; allocation counts and heap
// bytes do not. This binary replaces the global operator new with a
// counting one (the same technique as perfbench's alloc_counter, kept as a
// separate copy so the benchmark stays untouched) that also tracks the live
// heap bytes, and pins the counts.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "algo/local_search.h"
#include "desi/generator.h"
#include "model/constraints.h"
#include "model/objective.h"
#include "prism/architecture.h"
#include "prism/distribution.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "test_names.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
/// Bytes of the blocks operator new handed out and delete has not freed
/// (usable sizes, so a block counts what it really occupies).
std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void release(void* p) noexcept {
  if (p != nullptr)
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  std::free(p);
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return counted(std::aligned_alloc(a, rounded == 0 ? a : rounded));
}

}  // namespace

void* operator new(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new[](std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace dif::prism {
namespace {

class Sink final : public Component {
 public:
  explicit Sink(std::string name) : Component(std::move(name)) {}
  void handle(const Event& event) override {
    ++received;
    payload_bytes += event.get_bytes("payload")->size();
  }
  [[nodiscard]] std::string type_name() const override { return "sink"; }
  std::uint64_t received = 0;
  std::uint64_t payload_bytes = 0;
};

/// Hosts 0 and 1 on one reliable link; component "src" on host 0 sends to
/// component "dst" on host 1.
struct TwoHosts {
  sim::Simulator sim;
  sim::SimNetwork net{sim, 2, /*seed=*/1};
  SimScaffold scaffold{sim};
  std::vector<std::unique_ptr<Architecture>> archs;
  Sink* src = nullptr;
  Sink* dst = nullptr;

  TwoHosts() {
    net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 1e6, .delay_ms = 1});
    std::vector<DistributionConnector*> d;
    for (model::HostId h = 0; h < 2; ++h) {
      archs.push_back(std::make_unique<Architecture>(
          test::numbered("arch", h), scaffold, h));
      d.push_back(&static_cast<DistributionConnector&>(
          archs[h]->add_connector(std::make_unique<DistributionConnector>(
              test::numbered("d", h), net, h))));
    }
    src = &static_cast<Sink&>(
        archs[0]->add_component(std::make_unique<Sink>("src")));
    dst = &static_cast<Sink&>(
        archs[1]->add_component(std::make_unique<Sink>("dst")));
    archs[0]->weld(*src, *d[0]);
    archs[1]->weld(*dst, *d[1]);
    d[0]->add_peer(1);
    d[1]->add_peer(0);
    d[0]->set_location(intern("dst"), 1);
  }

  /// Sends `count` pre-built ~1 KB app events one at a time, running the
  /// simulator after each; returns the allocations made while doing so.
  std::uint64_t send(std::size_t count) {
    std::vector<Event> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Event e("app.data");
      e.set_to("dst");
      e.set("seq", static_cast<double>(i));
      e.set("payload", std::vector<std::uint8_t>(1024, 0x5a));
      events.push_back(std::move(e));
    }
    const std::uint64_t before = g_allocations.load();
    for (Event& e : events) {
      src->send(std::move(e));
      sim.run();
    }
    return g_allocations.load() - before;
  }
};

// Measured with this test: 4 allocations per event — the exact-size wire
// buffer, the deserialized event's parameter list and payload bytes, and
// the dispatch closure the event is moved into. The in-flight message rides
// its link's queue, not a closure of its own. Before the path was made
// copy-free it made 23; with a delivery closure per message, 5.
constexpr double kMaxAllocsPerEvent = 4.0;

TEST(EventPathAllocs, DirectedRemoteEventStaysWithinCount) {
  TwoHosts fixture;
  // Warm-up: lets the simulator heap, dispatch batch and receiver-side
  // containers reach their steady capacity before counting.
  fixture.send(64);
  ASSERT_EQ(fixture.dst->received, 64u);

  constexpr std::size_t kEvents = 1000;
  const std::uint64_t allocations = fixture.send(kEvents);
  ASSERT_EQ(fixture.dst->received, 64u + kEvents);
  EXPECT_EQ(fixture.dst->payload_bytes, (64u + kEvents) * 1024u);
  const double per_event =
      static_cast<double>(allocations) / static_cast<double>(kEvents);
  RecordProperty("allocs_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, kMaxAllocsPerEvent)
      << allocations << " allocations for " << kEvents << " events";
}

}  // namespace
}  // namespace dif::prism

namespace dif::algo {
namespace {

/// Allocations made by one warm-started hill climb capped at
/// `max_evaluations` on a 64-host fleet, after the dirty set of hosts 0..7.
std::uint64_t warm_hill_climb_allocations(std::uint64_t max_evaluations,
                                          std::uint64_t* evaluations) {
  const auto system = desi::Generator::generate(
      {.hosts = 64,
       .components = 192,
       .link_density = 4.0 / 64.0,
       .interaction_density = 4.0 / 192.0},
      5);
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  const model::AvailabilityObjective objective;
  AlgoOptions options;
  options.initial = system->deployment();
  options.warm_start = true;
  options.max_evaluations = max_evaluations;
  for (model::ComponentId c = 0; c < system->deployment().size(); ++c)
    if (system->deployment().host_of(c) < 8)
      options.dirty_components.push_back(c);
  HillClimbAlgorithm algorithm;
  const std::uint64_t before = g_allocations.load();
  const AlgoResult result =
      algorithm.run(system->model(), objective, checker, options);
  const std::uint64_t allocations = g_allocations.load() - before;
  *evaluations = result.evaluations;
  return allocations;
}

// The longer run makes 12,000 more probes. What it may allocate for them is
// the deployments it materializes when a probe beats the incumbent and the
// worklists of its extra passes, not one allocation per probe. Measured with
// this test: 1,033 allocations at 4,000 evaluations and 1,187 at 16,000; a
// std::function materializer made one more per probe (5,019 and 17,173).
TEST(SearchAllocs, WarmHillClimbAllocationsDoNotGrowWithEvaluations) {
  std::uint64_t short_evals = 0, long_evals = 0;
  const std::uint64_t short_allocs =
      warm_hill_climb_allocations(4'000, &short_evals);
  const std::uint64_t long_allocs =
      warm_hill_climb_allocations(16'000, &long_evals);
  ASSERT_EQ(short_evals, 4'000u);
  ASSERT_EQ(long_evals, 16'000u);
  RecordProperty("short_allocs", std::to_string(short_allocs));
  RecordProperty("long_allocs", std::to_string(long_allocs));
  EXPECT_LE(long_allocs, short_allocs + (long_evals - short_evals) / 20)
      << short_allocs << " allocations for " << short_evals
      << " evaluations, " << long_allocs << " for " << long_evals;
}

}  // namespace
}  // namespace dif::algo

namespace dif::model {
namespace {

// A 1024-host x 2048-component model at ~8 links per host (decide-1k's
// size and density). A dense k-by-k link matrix alone took 72 MiB here;
// the model holds the ~4k stored links instead. Measured with this test:
// 1.9 MB for the whole model.
constexpr std::int64_t kMaxFleetModelBytes = 8 << 20;

TEST(ModelMemory, FleetModelHeapHoldsOnlyStoredLinks) {
  constexpr std::size_t kHosts = 1024;
  constexpr std::size_t kComponents = 2048;
  const auto system = desi::Generator::generate(
      {.hosts = kHosts,
       .components = kComponents,
       .regions = kHosts / 32,
       .link_density = 8.0 / static_cast<double>(kHosts),
       .interaction_density = 8.0 / static_cast<double>(kComponents)},
      1);
  // The heap a copy of the model takes is the model's own.
  const std::int64_t before = g_live_bytes.load();
  const DeploymentModel copy = system->model();
  const std::int64_t bytes = g_live_bytes.load() - before;
  ASSERT_EQ(copy.host_count(), kHosts);
  RecordProperty("model_bytes", std::to_string(bytes));
  EXPECT_LT(bytes, kMaxFleetModelBytes) << bytes << " heap bytes";

  // Links that flip between absent and stored reuse their entry's slot:
  // the heap does not grow with the number of flips.
  DeploymentModel& m = system->model();
  const auto flip = [&m] {
    m.set_physical_link(0, kHosts - 1, {.reliability = 0.5, .bandwidth = 1.0});
    m.clear_physical_link(0, kHosts - 1);
  };
  flip();  // the first flip sizes the rows and the free-slot list
  const std::int64_t settled = g_live_bytes.load();
  for (int i = 0; i < 1000; ++i) flip();
  EXPECT_EQ(g_live_bytes.load(), settled);
}

}  // namespace
}  // namespace dif::model
