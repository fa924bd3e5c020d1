// Protocol fuzzer (chaos/fuzz.h): SimNetwork interception semantics,
// fixed-draw masking, seed determinism of whole fuzz reports, and the
// pinned regression corpus over the transactional-redeployment and
// custody-transfer protocols.
#include "chaos/fuzz.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "prism/distribution.h"
#include "prism/event.h"
#include "sim/network.h"

namespace dif::chaos {
namespace {

// --- raw SimNetwork fuzz-hook semantics ------------------------------------

struct NetFixture {
  sim::Simulator sim;
  sim::SimNetwork net{sim, 2, /*seed=*/1};
  std::vector<sim::NetMessage> received;
  std::vector<double> arrival_ms;

  NetFixture() {
    net.set_link(0, 1,
                 {.reliability = 1.0, .bandwidth = 1e9, .delay_ms = 5.0});
    for (model::HostId h = 0; h < 2; ++h)
      net.set_receiver(h, [this](const sim::NetMessage& m) {
        received.push_back(m);
        arrival_ms.push_back(sim.now());
      });
  }

  sim::NetMessage msg(const std::string& tag) {
    sim::NetMessage m;
    m.from = 0;
    m.to = 1;
    m.channel = tag;
    m.size_kb = 0.0;
    return m;
  }
};

TEST(FuzzHook, DropSuppressesDeliveryAndIsCharged) {
  NetFixture f;
  f.net.set_fuzz_hook([](const sim::NetMessage&) {
    sim::FuzzDecision d;
    d.drop = true;
    return d;
  });
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(f.net.send(f.msg("test")));
  f.sim.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.stats().sent, 10u);
  EXPECT_EQ(f.net.stats().dropped, 10u);
  // Fuzz drops are charged to the link like reliability losses.
  ASSERT_EQ(f.net.dropped_links().size(), 1u);
  EXPECT_EQ(f.net.dropped_links()[0].dropped, 10u);
}

TEST(FuzzHook, DuplicateDeliversExtraCopies) {
  NetFixture f;
  bool fuzzed = false;  // mutate only the first message
  f.net.set_fuzz_hook(
      [&fuzzed](const sim::NetMessage&) -> std::optional<sim::FuzzDecision> {
        if (fuzzed) return std::nullopt;
        fuzzed = true;
        sim::FuzzDecision d;
        d.duplicates = 2;
        d.duplicate_gap_ms = 50.0;
        return d;
      });
  EXPECT_TRUE(f.net.send(f.msg("test")));
  f.sim.run();
  // Original + 2 copies, each a full send of its own.
  EXPECT_EQ(f.received.size(), 3u);
  EXPECT_EQ(f.net.stats().sent, 3u);
  EXPECT_EQ(f.net.stats().delivered, 3u);
}

TEST(FuzzHook, ReorderOvertakesInterveningTraffic) {
  NetFixture f;
  int seen = 0;
  f.net.set_fuzz_hook(
      [&seen](const sim::NetMessage&) -> std::optional<sim::FuzzDecision> {
        if (seen++ != 0) return std::nullopt;
        // Drop the original, redeliver one copy 100ms later: the first
        // message must arrive after the second.
        sim::FuzzDecision d;
        d.drop = true;
        d.duplicates = 1;
        d.duplicate_gap_ms = 100.0;
        return d;
      });
  EXPECT_TRUE(f.net.send(f.msg("first")));
  EXPECT_TRUE(f.net.send(f.msg("second")));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 2u);
  EXPECT_EQ(f.received[0].channel, "second");
  EXPECT_EQ(f.received[1].channel, "first");
  EXPECT_LT(f.arrival_ms[0], f.arrival_ms[1]);
}

TEST(FuzzHook, DelayPostponesDelivery) {
  NetFixture f;
  f.net.set_fuzz_hook([](const sim::NetMessage&) {
    sim::FuzzDecision d;
    d.delay_ms = 500.0;
    return d;
  });
  EXPECT_TRUE(f.net.send(f.msg("test")));
  f.sim.run();
  ASSERT_EQ(f.arrival_ms.size(), 1u);
  EXPECT_GE(f.arrival_ms[0], 505.0);  // fuzz delay + link delay
}

// --- ProtocolFuzzer decision stream ----------------------------------------

sim::NetMessage protocol_msg(const std::string& event_name) {
  sim::NetMessage m;
  m.from = 0;
  m.to = 1;
  m.channel = prism::kEventChannel;
  m.payload = prism::Event(event_name).serialize();
  return m;
}

FuzzPolicy always_fire() {
  FuzzPolicy policy;
  policy.mutation_rate = 1.0;
  return policy;
}

TEST(ProtocolFuzzer, IgnoresNonEventChannelsAndUntargetedEvents) {
  ProtocolFuzzer fuzzer(always_fire(), /*seed=*/5);
  sim::NetMessage raw;
  raw.channel = "monitor";
  EXPECT_FALSE(fuzzer.decide(raw).has_value());
  EXPECT_FALSE(fuzzer.decide(protocol_msg("app_event")).has_value());
  EXPECT_EQ(fuzzer.targeted(), 0u);
  EXPECT_TRUE(fuzzer.decide(protocol_msg("__prepare_ack")).has_value());
  EXPECT_EQ(fuzzer.targeted(), 1u);
}

TEST(ProtocolFuzzer, MaskingSuppressesWithoutShiftingLaterDecisions) {
  // Reference stream: every targeted message mutates.
  ProtocolFuzzer reference(always_fire(), /*seed=*/5);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(reference.decide(protocol_msg("__migration_ack")).has_value());
  ASSERT_EQ(reference.applied().size(), 4u);

  // Masking ordinal 1 suppresses exactly that mutation; every other
  // decision (kind, magnitude) is unchanged — the fixed-draw discipline.
  ProtocolFuzzer masked(always_fire(), /*seed=*/5);
  masked.set_disabled({1});
  std::vector<bool> fired;
  for (int i = 0; i < 4; ++i)
    fired.push_back(masked.decide(protocol_msg("__migration_ack")).has_value());
  EXPECT_EQ(fired, (std::vector<bool>{true, false, true, true}));
  ASSERT_EQ(masked.applied().size(), 3u);
  for (const MutationRecord& m : masked.applied())
    EXPECT_NE(m.ordinal, 1u);
  EXPECT_EQ(masked.applied()[1].kind, reference.applied()[2].kind);
  EXPECT_EQ(masked.applied()[1].magnitude_ms,
            reference.applied()[2].magnitude_ms);
}

// --- whole-run determinism and the pinned regression corpus -----------------

FuzzConfig quick_config(std::uint64_t seed, std::size_t rounds) {
  FuzzConfig config;
  config.seed = seed;
  config.rounds = rounds;
  return config;
}

TEST(FuzzRunner, SameSeedYieldsByteIdenticalReports) {
  FuzzRunner one(quick_config(7, 2));
  FuzzRunner two(quick_config(7, 2));
  EXPECT_EQ(one.run().to_json().dump(2), two.run().to_json().dump(2));
}

// Pinned regression corpus: seeds 0..4 exercise drop/delay/duplicate/
// reorder across the txn (__prepare, __prepare_ack, __migration_ack,
// __new_config) and custody (__request_component, __component_transfer,
// __transfer_ack, __location_update) protocols, and every campaign
// invariant must hold under them. A change that breaks one of these seeds
// has changed protocol behavior under adversarial scheduling.
TEST(FuzzRegression, PinnedSeedsHoldAllInvariants) {
  const FuzzReport report = FuzzRunner(quick_config(0, 5)).run();
  ASSERT_EQ(report.rounds.size(), 5u);
  std::set<std::string> kinds;
  std::set<std::string> events;
  for (const FuzzRound& round : report.rounds) {
    EXPECT_FALSE(round.failed) << "seed " << round.seed;
    for (const InvariantViolation& v : round.report.violations)
      ADD_FAILURE() << "seed " << round.seed << ": " << v.invariant << ": "
                    << v.detail;
    EXPECT_GT(round.targeted, 0u) << "seed " << round.seed;
    EXPECT_GT(round.mutations.size(), 0u);
    EXPECT_EQ(round.to_json().at("mutation_count").as_number(),
              static_cast<double>(round.mutations.size()));
    for (const auto& [kind, n] : round.mutation_counts)
      if (n > 0) kinds.insert(kind);
    for (const MutationRecord& m : round.mutations) events.insert(m.event);
  }
  // The corpus must keep covering the duplicate/reorder edges of both
  // protocols — that is what pins the stale-ack and custody fixes.
  EXPECT_TRUE(kinds.count("duplicate"));
  EXPECT_TRUE(kinds.count("reorder"));
  EXPECT_TRUE(kinds.count("drop"));
  EXPECT_TRUE(kinds.count("delay"));
  EXPECT_TRUE(events.count("__migration_ack"));
  EXPECT_TRUE(events.count("__prepare_ack"));
  EXPECT_TRUE(events.count("__component_transfer"));
  EXPECT_TRUE(events.count("__transfer_ack"));
  EXPECT_TRUE(events.count("__location_update"));
}

// Known-bad seed 5 — the standing shrinker demonstration, asserted as an
// EXPECTED failure (xfail): drop+reorder of rollback-phase messages makes
// the epoch-5 rollback time out with compensations unconfirmed, leaving a
// component at its commit target while the `rollback_failed` round
// declares it back at the checkpoint without listing it unresolved — a
// torn placement the atomicity invariant flags. This is a genuine
// weakness of the two-phase effector under adversarial scheduling (the
// rollback path has no second-level compensation retry), documented here
// and in docs/fuzzing.md rather than hidden; the day the protocol is
// hardened, this test flips to the green corpus above. The shrinker
// assertions pin the ddmin-lite contract: the minimal trace must be
// non-growing AND must reproduce the *original* invariant — an earlier
// shrinker accepted any failing replay, so the "minimal" trace could
// drift onto a different bug than the one it was shrinking.
TEST(FuzzRegression, KnownBadSeedFiveTornPlacementShrinksOnBug) {
  FuzzConfig config = quick_config(5, 1);
  config.shrink_budget = 16;  // enough to shrink, cheap enough for a test
  const FuzzReport report = FuzzRunner(config).run();
  ASSERT_EQ(report.rounds.size(), 1u);
  const FuzzRound& round = report.rounds[0];
  ASSERT_TRUE(round.failed) << "seed 5 no longer violates atomicity: the "
                               "torn-placement defect appears fixed — move "
                               "this seed to the pinned green corpus";
  // The torn placement is the root violation; the stranded component also
  // leaves the converged placement worse than the initial one, so the
  // availability invariant fires as collateral on the same round.
  bool torn = false;
  for (const InvariantViolation& v : round.report.violations)
    torn = torn || v.invariant == "atomicity";
  EXPECT_TRUE(torn) << "seed 5 still fails, but no longer by atomicity — "
                       "re-triage the root cause before re-pinning";
  // ddmin-lite contract: non-growing, budget-bounded, and still failing on
  // the original invariant (round.minimal is by construction the applied
  // trace of the last accepted failing replay).
  EXPECT_LE(round.minimal.size(), round.mutations.size());
  EXPECT_LT(round.minimal.size(), round.mutations.size())
      << "shrinker made no progress within budget";
  EXPECT_LE(round.shrink_runs, config.shrink_budget);
}

}  // namespace
}  // namespace dif::chaos
