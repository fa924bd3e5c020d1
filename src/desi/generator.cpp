#include "desi/generator.h"

#include <memory>
#include <numeric>
#include <stdexcept>

#include "algo/random_feasible.h"
#include "util/rng.h"

namespace dif::desi {

namespace {

double sample(util::Xoshiro256ss& rng, const Range& range) {
  if (range.hi <= range.lo) return range.lo;
  return rng.uniform(range.lo, range.hi);
}

}  // namespace

std::unique_ptr<SystemData> Generator::generate(const GeneratorSpec& spec,
                                                std::uint64_t seed) {
  if (spec.hosts == 0 || spec.components == 0)
    throw std::invalid_argument("Generator: need at least 1 host/component");
  util::Xoshiro256ss rng(seed);

  auto system_ptr = std::make_unique<SystemData>();
  SystemData& system = *system_ptr;
  model::DeploymentModel& m = system.model();

  // --- hosts -----------------------------------------------------------------
  for (std::size_t h = 0; h < spec.hosts; ++h) {
    m.add_host({.name = "host" + std::to_string(h),
                .memory_capacity = sample(rng, spec.host_memory),
                .cpu_capacity = sample(rng, spec.host_cpu),
                .properties = {}});
    // Round-robin region assignment (no RNG draw: adding regions must not
    // shift the generated topology for a given seed).
    if (spec.regions > 1)
      m.set_host_region(static_cast<model::HostId>(h), h % spec.regions);
  }

  // --- components --------------------------------------------------------------
  for (std::size_t c = 0; c < spec.components; ++c) {
    m.add_component({.name = "comp" + std::to_string(c),
                     .memory_size = sample(rng, spec.component_memory),
                     .cpu_load = sample(rng, spec.component_cpu),
                     .properties = {}});
  }

  // --- hardware topology: random spanning tree + density extras ----------------
  const auto make_link = [&](model::HostId a, model::HostId b) {
    m.set_physical_link(a, b,
                        {.reliability = sample(rng, spec.reliability),
                         .bandwidth = sample(rng, spec.bandwidth),
                         .delay_ms = sample(rng, spec.delay_ms),
                         .properties = {}});
  };
  std::vector<model::HostId> order(spec.hosts);
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);
  for (std::size_t i = 1; i < spec.hosts; ++i) {
    // Attach each host to a random earlier one: a uniform random tree.
    make_link(order[i], order[rng.index(i)]);
  }
  for (std::size_t a = 0; a < spec.hosts; ++a)
    for (std::size_t b = a + 1; b < spec.hosts; ++b)
      if (!m.connected(static_cast<model::HostId>(a),
                       static_cast<model::HostId>(b)) &&
          rng.chance(spec.link_density))
        make_link(static_cast<model::HostId>(a),
                  static_cast<model::HostId>(b));

  // --- software topology ---------------------------------------------------------
  const auto make_interaction = [&](model::ComponentId a,
                                    model::ComponentId b) {
    m.set_logical_link(a, b,
                       {.frequency = sample(rng, spec.frequency),
                        .avg_event_size = sample(rng, spec.event_size),
                        .properties = {}});
  };
  for (std::size_t a = 0; a < spec.components; ++a)
    for (std::size_t b = a + 1; b < spec.components; ++b)
      if (rng.chance(spec.interaction_density))
        make_interaction(static_cast<model::ComponentId>(a),
                         static_cast<model::ComponentId>(b));
  // No isolated components: every component interacts with someone.
  if (spec.components > 1) {
    std::vector<bool> interacts(spec.components, false);
    for (const model::Interaction& ix : m.interactions()) {
      interacts[ix.a] = true;
      interacts[ix.b] = true;
    }
    for (std::size_t c = 0; c < spec.components; ++c) {
      if (interacts[c]) continue;
      auto other = static_cast<model::ComponentId>(
          rng.index(spec.components - 1));
      if (other >= c) ++other;
      make_interaction(static_cast<model::ComponentId>(c), other);
    }
  }

  // --- initial deployment (feasibility by construction) -----------------------
  model::ConstraintSet no_constraints;
  for (int attempt = 0;; ++attempt) {
    const model::ConstraintChecker checker(m, no_constraints);
    const algo::ColocationGroups groups =
        algo::ColocationGroups::build(m, no_constraints);
    // Scattered placement: an uncoordinated initial deployment spreads
    // components across hosts (a pack-first construction would often put
    // the whole system on one host, leaving nothing to improve).
    std::optional<model::Deployment> d;
    for (int i = 0; i < 16 && !d; ++i)
      d = algo::build_scattered_feasible(m, checker, groups, rng);
    if (d) {
      system.sync_deployment_size();
      system.set_deployment(*d);
      break;
    }
    if (!spec.ensure_feasible || attempt >= 16)
      throw std::runtime_error(
          "Generator: could not construct a feasible deployment");
    // Inflate host memories and retry.
    for (std::size_t h = 0; h < spec.hosts; ++h) {
      model::Host& host = m.host(static_cast<model::HostId>(h));
      host.memory_capacity *= 1.5;
    }
    m.notify_entity_changed();
  }

  // --- constraints consistent with the initial deployment ----------------------
  model::ConstraintSet& constraints = system.constraints();
  const model::Deployment& d = system.deployment();
  for (std::size_t i = 0;
       i < spec.location_constraints && spec.hosts > 1; ++i) {
    const auto c = static_cast<model::ComponentId>(
        rng.index(spec.components));
    // Allowed set: the current host plus a random sample of others.
    std::vector<model::HostId> allowed{d.host_of(c)};
    for (std::size_t h = 0; h < spec.hosts; ++h)
      if (static_cast<model::HostId>(h) != d.host_of(c) && rng.chance(0.4))
        allowed.push_back(static_cast<model::HostId>(h));
    constraints.allow_only(c, std::move(allowed));
  }
  for (std::size_t i = 0; i < spec.colocation_pairs; ++i) {
    // Sample a pair already sharing a host.
    const auto a = static_cast<model::ComponentId>(
        rng.index(spec.components));
    const std::vector<model::ComponentId> mates =
        d.components_on(d.host_of(a));
    if (mates.size() < 2) continue;
    const model::ComponentId b = mates[rng.index(mates.size())];
    if (a != b) constraints.require_colocation(a, b);
  }
  for (std::size_t i = 0; i < spec.anti_colocation_pairs; ++i) {
    const auto a = static_cast<model::ComponentId>(
        rng.index(spec.components));
    const auto b = static_cast<model::ComponentId>(
        rng.index(spec.components));
    if (a != b && d.host_of(a) != d.host_of(b))
      constraints.forbid_colocation(a, b);
  }
  system.notify_constraints_changed();
  return system_ptr;
}

}  // namespace dif::desi
