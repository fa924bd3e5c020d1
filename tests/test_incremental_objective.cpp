// Property-style equivalence harness for the incremental evaluator: after
// any sequence of random single-component moves, the delta-maintained value
// must match a from-scratch Objective::evaluate to within floating-point
// accumulation noise. The two paths share the term kernel but sum it in
// different orders over different deployments' histories, so agreement
// checks the delta bookkeeping; test_objective_golden pins the values.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "desi/generator.h"
#include "model/incremental.h"
#include "util/rng.h"
#include "test_names.h"

namespace dif::model {
namespace {

/// |a - b| <= tol * max(1, |a|, |b|): relative with an absolute floor.
void expect_close(double a, double b, const char* what, std::size_t step) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  EXPECT_NEAR(a, b, 1e-9 * scale) << what << " at move " << step;
}

const desi::GeneratorSpec kConstrainedSpec{.hosts = 8,
                                           .components = 24,
                                           .interaction_density = 0.3,
                                           .location_constraints = 2,
                                           .colocation_pairs = 1,
                                           .anti_colocation_pairs = 1};

std::unique_ptr<desi::SystemData> make_system(std::uint64_t seed) {
  return desi::Generator::generate(kConstrainedSpec, seed);
}

/// One row of the equivalence table: a generated system shape, its seed,
/// and the latency objective's disconnection penalty. Rows are named
/// `<shape>_<seed>`, or just `<seed>` for the constrained shape.
struct EquivalenceCase {
  const char* shape;
  desi::GeneratorSpec spec;
  std::uint64_t seed = 0;
  double latency_penalty_ms = 10'000.0;
};

std::vector<EquivalenceCase> equivalence_cases() {
  std::vector<EquivalenceCase> cases;
  for (const std::uint64_t seed : {1, 7, 19, 101})
    cases.push_back({"", kConstrainedSpec, seed});
  // Small dense, sparse-link (many disconnected pairs, custom penalty), and
  // three-host shapes.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cases.push_back(
        {"availability",
         {.hosts = 5, .components = 12, .interaction_density = 0.4},
         seed});
    cases.push_back({"latency",
                     {.hosts = 4, .components = 10, .link_density = 0.3},
                     seed,
                     1234.5});
    cases.push_back({"commcost", {.hosts = 3, .components = 8}, seed});
  }
  return cases;
}

/// Prints the row's name; ctest lists each row under it.
void PrintTo(const EquivalenceCase& row, std::ostream* out) {
  if (*row.shape) *out << row.shape << '_';
  *out << row.seed;
}

class IncrementalEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

/// Replays thousands of random single-component moves (including unassigns)
/// against each decomposable objective and cross-checks every step.
TEST_P(IncrementalEquivalenceTest, ThousandsOfRandomMovesMatchFullEvaluate) {
  const EquivalenceCase& param = GetParam();
  const auto system = desi::Generator::generate(param.spec, param.seed);
  const DeploymentModel& m = system->model();
  util::Xoshiro256ss rng(param.seed * 31 + 5);

  const AvailabilityObjective availability;
  const LatencyObjective latency(param.latency_penalty_ms);
  const CommunicationCostObjective comm_cost;
  const Objective* objectives[] = {&availability, &latency, &comm_cost};
  for (const Objective* objective : objectives) {
    auto inc = IncrementalEvaluator::try_create(*objective, m);
    ASSERT_TRUE(inc.has_value()) << objective->name();

    Deployment mirror = system->deployment();
    inc->reset(mirror);
    expect_close(inc->value(), objective->evaluate(m, mirror),
                 std::string(objective->name()).c_str(), 0);

    std::uint64_t real_moves = 0;
    for (std::size_t step = 1; step <= 3000; ++step) {
      const auto c =
          static_cast<ComponentId>(rng.index(m.component_count()));
      // Mostly real moves, occasionally an unassign (kNoHost) to exercise
      // the partial-deployment terms.
      const HostId h = rng.chance(0.05)
                           ? kNoHost
                           : static_cast<HostId>(rng.index(m.host_count()));
      if (mirror.host_of(c) != h) ++real_moves;
      mirror.assign(c, h);
      inc->apply(c, h);
      expect_close(inc->value(), objective->evaluate(m, mirror),
                   std::string(objective->name()).c_str(), step);
    }
    EXPECT_EQ(inc->moves_applied(), real_moves) << objective->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::ValuesIn(equivalence_cases()));

/// A far round trip must read the same bits as apply(): the hill climb's
/// probes switch between far and plain moves per host. Groups of one or two
/// interacting components probe hosts with no stored link to any outside
/// partner's host; some then stay there, and partners are occasionally
/// unassigned so every branch of every term is taken.
TEST(IncrementalEvaluator, FarMovesMatchApplyBitForBit) {
  auto system = desi::Generator::generate(
      {.hosts = 40,
       .components = 80,
       .link_density = 2.0 / 40.0,
       .interaction_density = 3.0 / 80.0},
      21);
  DeploymentModel& m = system->model();
  for (HostId a = 0; a < m.host_count(); a += 3)
    for (HostId b = a + 1; b < m.host_count(); ++b)
      if (m.connected(a, b)) m.set_link_reliability(a, b, 0.0);
  std::vector<std::vector<ComponentId>> partners(m.component_count());
  for (const Interaction& ix : m.interactions()) {
    partners[ix.a].push_back(ix.b);
    partners[ix.b].push_back(ix.a);
  }

  const AvailabilityObjective availability;
  const LatencyObjective latency(777.0);
  const CommunicationCostObjective comm_cost;
  const Objective* objectives[] = {&availability, &latency, &comm_cost};
  for (const Objective* objective : objectives) {
    auto plain = IncrementalEvaluator::try_create(*objective, m);
    auto far = IncrementalEvaluator::try_create(*objective, m);
    ASSERT_TRUE(plain.has_value() && far.has_value());
    plain->reset(system->deployment());
    far->reset(system->deployment());
    util::Xoshiro256ss rng(77);
    std::size_t far_moves = 0;
    for (std::size_t step = 0; step < 4000; ++step) {
      const auto c = static_cast<ComponentId>(rng.index(m.component_count()));
      if (rng.chance(0.03)) {  // unassign or reassign a partner
        const HostId h = plain->host_of(c) == kNoHost
                             ? static_cast<HostId>(rng.index(m.host_count()))
                             : kNoHost;
        plain->apply(c, h);
        far->apply(c, h);
        continue;
      }
      const HostId from = plain->host_of(c);
      if (from == kNoHost) continue;
      std::vector<ComponentId> group{c};
      if (!partners[c].empty() && rng.chance(0.5)) {
        const ComponentId mate = partners[c][rng.index(partners[c].size())];
        plain->apply(mate, from);
        far->apply(mate, from);
        group.push_back(mate);
      }
      std::vector<char> near(m.host_count(), 0);
      near[from] = 1;
      for (const ComponentId member : group)
        for (const ComponentId p : partners[member]) {
          if (p == group.front() || p == group.back()) continue;
          const HostId ph = plain->host_of(p);
          if (ph == kNoHost) continue;
          near[ph] = 1;
          for (const HostId n : m.physical_neighbors(ph)) near[n] = 1;
        }
      std::vector<HostId> candidates;
      for (HostId h = 0; h < m.host_count(); ++h)
        if (!near[h]) candidates.push_back(h);
      if (candidates.empty()) continue;
      const HostId to = candidates[rng.index(candidates.size())];
      for (const ComponentId member : group) plain->apply(member, to);
      const double plain_value = plain->value();
      for (const ComponentId member : group) plain->apply(member, from);
      ++far_moves;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    far->round_trip(group, from, to, /*far=*/true)),
                std::bit_cast<std::uint64_t>(plain_value))
          << objective->name() << " at step " << step;
      if (rng.chance(0.5))
        for (const ComponentId member : group) {
          plain->apply(member, to);
          far->apply(member, to);
        }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(far->value()),
                std::bit_cast<std::uint64_t>(plain->value()))
          << objective->name() << " at step " << step;
    }
    EXPECT_GT(far_moves, 1000u) << objective->name();
    EXPECT_EQ(far->moves_applied(), plain->moves_applied());
  }
}

/// Drives IncrementalEvaluator::round_trip the way the hill climb does
/// (scans of one group over every host, far where no partner's host links
/// to the target) and a twin through the same round trips made of plain
/// apply() calls, with external group moves, unassigned groups and resets
/// in between. Returns how many far probes ran.
std::size_t expect_round_trips_match_twin(const DeploymentModel& m,
                                          const Deployment& start,
                                          const Objective& objective,
                                          std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  // A partition into groups: interacting pairs (internal interactions),
  // non-interacting pairs, and singletons.
  std::vector<std::vector<ComponentId>> groups;
  std::vector<char> grouped(m.component_count(), 0);
  for (const Interaction& ix : m.interactions())
    if (!grouped[ix.a] && !grouped[ix.b] && rng.chance(0.4)) {
      groups.push_back({ix.a, ix.b});
      grouped[ix.a] = grouped[ix.b] = 1;
    }
  std::vector<ComponentId> rest;
  for (ComponentId c = 0; c < m.component_count(); ++c)
    if (!grouped[c]) rest.push_back(c);
  rng.shuffle(rest);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (i + 1 < rest.size() && rng.chance(0.2) &&
        m.logical_link(rest[i], rest[i + 1]).frequency == 0.0) {
      groups.push_back({rest[i], rest[i + 1]});
      ++i;
    } else {
      groups.push_back({rest[i]});
    }
  }
  std::vector<std::vector<ComponentId>> partners(m.component_count());
  for (const Interaction& ix : m.interactions()) {
    partners[ix.a].push_back(ix.b);
    partners[ix.b].push_back(ix.a);
  }
  std::vector<std::size_t> group_of(m.component_count());
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (const ComponentId c : groups[g]) group_of[c] = g;

  Deployment colocated = start;
  for (const auto& group : groups)
    for (const ComponentId c : group)
      colocated.assign(c, start.host_of(group.front()));
  auto inc = IncrementalEvaluator::try_create(objective, m);
  auto twin = IncrementalEvaluator::try_create(objective, m);
  EXPECT_TRUE(inc.has_value() && twin.has_value());
  if (!inc || !twin) return 0;
  inc->reset(colocated);
  twin->reset(colocated);
  const auto move_group = [&](const std::vector<ComponentId>& group,
                              HostId h) {
    for (const ComponentId c : group) {
      inc->apply(c, h);
      twin->apply(c, h);
    }
  };

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t far_probes = 0;
  std::size_t g = 0;
  HostId h = 0;
  for (std::size_t step = 0; step < 20000; ++step) {
    if (rng.chance(0.03)) {
      // A group moves, leaves or returns between probes: mostly a partner
      // of the scanned group, often onto the scanned group's host, so the
      // running sum may stay bit-equal while the scanned group's terms
      // change.
      const ComponentId member = groups[g][rng.index(groups[g].size())];
      const auto& other =
          !partners[member].empty() && rng.chance(0.7)
              ? groups[group_of[partners[member][rng.index(
                    partners[member].size())]]]
              : groups[rng.index(groups.size())];
      HostId to = static_cast<HostId>(rng.index(m.host_count()));
      if (twin->host_of(other.front()) != kNoHost && rng.chance(0.2))
        to = kNoHost;
      else if (rng.chance(0.5))
        to = twin->host_of(member);
      move_group(other, to);
    }
    if (rng.chance(0.003)) {
      const Deployment d = twin->to_deployment();
      inc->reset(d);
      twin->reset(d);
    }
    if (h == m.host_count()) {  // scan finished: rescan or pick another
      h = 0;
      if (rng.chance(0.5)) g = rng.index(groups.size());
    }
    const std::vector<ComponentId>& group = groups[g];
    const HostId from = twin->host_of(group.front());
    const HostId to = h++;
    if (from == kNoHost || to == from) continue;
    bool far = true;
    for (const ComponentId c : group)
      for (const ComponentId p : partners[c]) {
        const HostId ph = twin->host_of(p);
        if (ph == kNoHost ||
            std::find(group.begin(), group.end(), p) != group.end())
          continue;
        if (ph == to || link_stored(m.physical_link(ph, to))) far = false;
      }
    if (far && rng.chance(0.1)) far = false;  // a far host probed plainly
    far_probes += far;

    for (const ComponentId c : group) twin->apply(c, to);
    const double expected = twin->value();
    for (const ComponentId c : group) twin->apply(c, from);
    const double value = inc->round_trip(group, from, to, far);
    EXPECT_EQ(bits(value), bits(expected))
        << objective.name() << " seed " << seed << " probe at step " << step;
    EXPECT_EQ(bits(inc->value()), bits(twin->value()))
        << objective.name() << " seed " << seed << " return at step " << step;
    if (::testing::Test::HasFailure()) return far_probes;
  }
  EXPECT_EQ(inc->moves_applied(), twin->moves_applied()) << objective.name();
  EXPECT_EQ(inc->to_deployment(), twin->to_deployment()) << objective.name();
  return far_probes;
}

/// Replayed far round trips must land on the bits the arithmetic would
/// have: on a sparse generated fleet, and on one whose terms are small
/// integers, where a partner's move often leaves the running sum bit-equal
/// while the probed group's terms change.
TEST(IncrementalEvaluator, RoundTripReplayIsBitExact) {
  const desi::GeneratorSpec sparse{.hosts = 24,
                                   .components = 60,
                                   .link_density = 2.0 / 24.0,
                                   .interaction_density = 3.0 / 60.0};
  desi::GeneratorSpec integral = sparse;
  integral.hosts = 10;
  integral.link_density = 1.0 / 10.0;
  integral.reliability = {0.5, 0.5};
  integral.bandwidth = {1000.0, 1000.0};
  integral.delay_ms = {1.0, 1.0};
  integral.frequency = {1.0, 1.0};
  integral.event_size = {1.0, 1.0};
  for (const desi::GeneratorSpec& spec : {sparse, integral})
    for (const std::uint64_t seed : {3, 11}) {
      const auto system = desi::Generator::generate(spec, seed);
      const DeploymentModel& m = system->model();
      const AvailabilityObjective availability;
      const LatencyObjective latency(555.5);
      const CommunicationCostObjective comm_cost;
      const Objective* objectives[] = {&availability, &latency, &comm_cost};
      for (const Objective* objective : objectives)
        EXPECT_GT(expect_round_trips_match_twin(m, system->deployment(),
                                                *objective, seed),
                  1000u)
            << objective->name() << " seed " << seed;
    }
}

TEST(IncrementalEvaluator, ScoreMatchesObjectiveScore) {
  const auto system = make_system(3);
  const DeploymentModel& m = system->model();
  util::Xoshiro256ss rng(12);

  const AvailabilityObjective availability;
  const LatencyObjective latency;
  const CommunicationCostObjective comm_cost;
  const Objective* objectives[] = {&availability, &latency, &comm_cost};
  for (const Objective* objective : objectives) {
    auto inc = IncrementalEvaluator::try_create(*objective, m);
    ASSERT_TRUE(inc.has_value());
    Deployment mirror = system->deployment();
    inc->reset(mirror);
    for (std::size_t step = 1; step <= 200; ++step) {
      const auto c =
          static_cast<ComponentId>(rng.index(m.component_count()));
      const auto h = static_cast<HostId>(rng.index(m.host_count()));
      mirror.assign(c, h);
      inc->apply(c, h);
      expect_close(inc->score(), objective->score(m, mirror),
                   std::string(objective->name()).c_str(), step);
    }
  }
}

TEST(IncrementalEvaluator, ResetResynchronizesAfterDrift) {
  const auto system = make_system(4);
  const DeploymentModel& m = system->model();
  const AvailabilityObjective objective;
  auto inc = IncrementalEvaluator::try_create(objective, m);
  ASSERT_TRUE(inc.has_value());

  inc->reset(system->deployment());
  util::Xoshiro256ss rng(9);
  Deployment mirror = system->deployment();
  for (std::size_t step = 0; step < 500; ++step) {
    const auto c = static_cast<ComponentId>(rng.index(m.component_count()));
    const auto h = static_cast<HostId>(rng.index(m.host_count()));
    mirror.assign(c, h);
    inc->apply(c, h);
  }
  // A fresh reset must discard all accumulated rounding error exactly.
  inc->reset(mirror);
  EXPECT_EQ(inc->value(), objective.evaluate(m, mirror));
}

TEST(IncrementalEvaluator, ToDeploymentMirrorsAppliedMoves) {
  const auto system = make_system(5);
  const DeploymentModel& m = system->model();
  const CommunicationCostObjective objective;
  auto inc = IncrementalEvaluator::try_create(objective, m);
  ASSERT_TRUE(inc.has_value());
  Deployment mirror = system->deployment();
  inc->reset(mirror);
  util::Xoshiro256ss rng(2);
  for (std::size_t step = 0; step < 100; ++step) {
    const auto c = static_cast<ComponentId>(rng.index(m.component_count()));
    const auto h = static_cast<HostId>(rng.index(m.host_count()));
    mirror.assign(c, h);
    inc->apply(c, h);
  }
  EXPECT_EQ(inc->to_deployment(), mirror);
}

TEST(IncrementalEvaluator, NoOpMoveLeavesValueBitIdentical) {
  const auto system = make_system(6);
  const DeploymentModel& m = system->model();
  const LatencyObjective objective;
  auto inc = IncrementalEvaluator::try_create(objective, m);
  ASSERT_TRUE(inc.has_value());
  inc->reset(system->deployment());
  const double before = inc->value();
  inc->apply(ComponentId{0}, system->deployment().host_of(ComponentId{0}));
  EXPECT_EQ(inc->value(), before);  // skipped, not recomputed
}

TEST(IncrementalEvaluator, DegreeZeroComponentsMatchFullEvaluate) {
  // A hand-built model where half the components never interact (the
  // generator refuses to produce isolated components): their CSR adjacency
  // rows are empty, so apply() must degenerate to a pure assignment update
  // and still agree with the from-scratch evaluation at every step.
  DeploymentModel m;
  for (int h = 0; h < 4; ++h)
    m.add_host({.name = test::numbered("h", h), .memory_capacity = 100.0});
  for (int c = 0; c < 10; ++c)
    m.add_component({.name = test::numbered("c", c), .memory_size = 1.0});
  for (HostId a = 0; a < 4; ++a)
    for (HostId b = a + 1; b < 4; ++b)
      m.set_physical_link(a, b,
                          {.reliability = 0.9, .bandwidth = 50.0,
                           .delay_ms = 3.0});
  // Components 0..4 form a chain; 5..9 stay isolated (degree 0).
  for (ComponentId c = 0; c < 4; ++c)
    m.set_logical_link(c, c + 1,
                       {.frequency = 2.0, .avg_event_size = 0.5});

  const AvailabilityObjective availability;
  const LatencyObjective latency;
  const CommunicationCostObjective comm_cost;
  const Objective* objectives[] = {&availability, &latency, &comm_cost};
  util::Xoshiro256ss rng(8);
  for (const Objective* objective : objectives) {
    auto inc = IncrementalEvaluator::try_create(*objective, m);
    ASSERT_TRUE(inc.has_value()) << objective->name();
    Deployment mirror(m.component_count());
    for (std::size_t c = 0; c < m.component_count(); ++c)
      mirror.assign(static_cast<ComponentId>(c),
                    static_cast<HostId>(c % m.host_count()));
    inc->reset(mirror);
    for (std::size_t step = 1; step <= 50; ++step) {
      const auto c = static_cast<ComponentId>(rng.index(m.component_count()));
      const auto h = static_cast<HostId>(rng.index(m.host_count()));
      mirror.assign(c, h);
      inc->apply(c, h);
      expect_close(inc->value(), objective->evaluate(m, mirror),
                   std::string(objective->name()).c_str(), step);
    }
  }
}

TEST(IncrementalEvaluator, RejectsNonDecomposableObjectives) {
  const auto system = make_system(7);
  const DeploymentModel& m = system->model();

  const SecurityObjective security;
  EXPECT_FALSE(IncrementalEvaluator::try_create(security, m).has_value());

  std::vector<WeightedObjective::Term> terms;
  terms.push_back({std::make_shared<AvailabilityObjective>(), 1.0});
  terms.push_back({std::make_shared<LatencyObjective>(), 1.0});
  const WeightedObjective weighted(std::move(terms));
  EXPECT_FALSE(IncrementalEvaluator::try_create(weighted, m).has_value());
}

TEST(Pairwise, OptimisticTermBoundsEveryPlacement) {
  const auto system =
      desi::Generator::generate({.hosts = 4, .components = 8}, 99);
  const DeploymentModel& m = system->model();
  const AvailabilityObjective objective;
  const auto terms = PairwiseDecomposition::try_create(objective, m);
  ASSERT_TRUE(terms.has_value());
  for (const Interaction& ix : m.interactions())
    for (HostId a = 0; a < m.host_count(); ++a)
      for (HostId b = 0; b < m.host_count(); ++b)
        EXPECT_LE(terms->pair_term(ix, a, b),
                  terms->optimistic_term(ix) + 1e-12);
}

TEST(Pairwise, UnknownObjectiveIsNotDecomposable) {
  const auto system =
      desi::Generator::generate({.hosts = 2, .components = 4}, 1);
  const SecurityObjective security;
  EXPECT_FALSE(PairwiseDecomposition::try_create(security, system->model())
                   .has_value());
}

TEST(Pairwise, WeightedObjectiveIsNotDecomposable) {
  const auto system =
      desi::Generator::generate({.hosts = 2, .components = 4}, 2);
  auto availability = std::make_shared<AvailabilityObjective>();
  auto latency = std::make_shared<LatencyObjective>();
  const WeightedObjective weighted({{availability, 1.0}, {latency, 1.0}});
  // Weighted mixes normalized scores non-linearly across terms; exact
  // search must fall back to leaf evaluation rather than mis-prune.
  EXPECT_FALSE(PairwiseDecomposition::try_create(weighted, system->model())
                   .has_value());
}

}  // namespace
}  // namespace dif::model
