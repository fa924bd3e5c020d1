#include "model/deployment_model.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "util/assert.h"

namespace dif::model {

namespace {

const PhysicalLink& local_link() {
  static const PhysicalLink link{
      .reliability = 1.0,
      .bandwidth = std::numeric_limits<double>::infinity(),
      .delay_ms = 0.0,
      .properties = {}};
  return link;
}

const LogicalLink& no_interaction() {
  static const LogicalLink link{};
  return link;
}

bool nonzero_bits(double x) { return std::bit_cast<std::uint64_t>(x) != 0; }

}  // namespace

bool link_stored(const PhysicalLink& link) noexcept {
  return nonzero_bits(link.reliability) || nonzero_bits(link.bandwidth) ||
         nonzero_bits(link.delay_ms) || !link.properties.empty();
}

HostId DeploymentModel::add_host(Host host) {
  // Names are identifiers (xADL documents and the middleware's event
  // routing key on them); duplicates would silently corrupt both.
  for (const Host& existing : hosts_)
    if (existing.name == host.name)
      throw std::invalid_argument("DeploymentModel: duplicate host name '" +
                                  host.name + "'");
  const auto id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(std::move(host));
  link_rows_.emplace_back();  // the new host has no links
  notify({.event = ModelEvent::kTopologyChanged, .host_a = id});
  return id;
}

ComponentId DeploymentModel::add_component(SoftwareComponent component) {
  for (const SoftwareComponent& existing : components_)
    if (existing.name == component.name)
      throw std::invalid_argument(
          "DeploymentModel: duplicate component name '" + component.name +
          "'");
  const auto id = static_cast<ComponentId>(components_.size());
  components_.push_back(std::move(component));
  interactions_dirty_ = true;
  notify({.event = ModelEvent::kTopologyChanged, .component_a = id});
  return id;
}

HostId DeploymentModel::host_by_name(std::string_view name) const {
  const auto it = std::find_if(hosts_.begin(), hosts_.end(),
                               [&](const Host& h) { return h.name == name; });
  if (it == hosts_.end())
    throw std::out_of_range("DeploymentModel: no host named '" +
                            std::string(name) + "'");
  return static_cast<HostId>(it - hosts_.begin());
}

ComponentId DeploymentModel::component_by_name(std::string_view name) const {
  if (const std::optional<ComponentId> id = find_component(name)) return *id;
  throw std::out_of_range("DeploymentModel: no component named '" +
                          std::string(name) + "'");
}

std::optional<ComponentId> DeploymentModel::find_component(
    std::string_view name) const {
  const auto it = std::find_if(
      components_.begin(), components_.end(),
      [&](const SoftwareComponent& c) { return c.name == name; });
  if (it == components_.end()) return std::nullopt;
  return static_cast<ComponentId>(it - components_.begin());
}

void DeploymentModel::set_host_region(HostId id, std::size_t region) {
  check_host(id);
  hosts_[id].properties.set(kRegionProperty, static_cast<double>(region));
  notify({.event = ModelEvent::kEntityParamChanged, .host_a = id});
}

std::size_t DeploymentModel::host_region(HostId id) const {
  check_host(id);
  return static_cast<std::size_t>(
      hosts_[id].properties.get_or(kRegionProperty, 0.0));
}

std::size_t DeploymentModel::region_count() const {
  std::size_t highest = 0;
  for (std::size_t h = 0; h < hosts_.size(); ++h)
    highest = std::max(highest, host_region(static_cast<HostId>(h)));
  return hosts_.empty() ? 1 : highest + 1;
}

std::vector<HostId> DeploymentModel::hosts_in_region(
    std::size_t region) const {
  std::vector<HostId> members;
  for (std::size_t h = 0; h < hosts_.size(); ++h)
    if (host_region(static_cast<HostId>(h)) == region)
      members.push_back(static_cast<HostId>(h));
  return members;
}

void DeploymentModel::check_host(HostId id) const {
  if (id >= hosts_.size())
    throw std::out_of_range("DeploymentModel: bad host id");
}

void DeploymentModel::check_component(ComponentId id) const {
  if (id >= components_.size())
    throw std::out_of_range("DeploymentModel: bad component id");
}

std::uint64_t DeploymentModel::logi_key(ComponentId a, ComponentId b) {
  const auto [lo, hi] = std::minmax(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

template <typename Update>
void DeploymentModel::write_link(HostId a, HostId b, Update&& update) {
  if (a == b)
    throw std::invalid_argument("DeploymentModel: self physical link");
  check_host(a);
  check_host(b);
  const std::size_t i = link_rows_[a].lower(b);
  if (link_rows_[a].holds(i, b)) {
    const std::uint32_t slot = link_rows_[a].slots[i];
    update(links_[slot]);
    if (!link_stored(links_[slot])) {
      for (const auto& [x, y] : {std::pair(a, b), std::pair(b, a)}) {
        LinkRow& row = link_rows_[x];
        const std::size_t at = row.lower(y);
        DIF_ASSERT(row.holds(at, y), "a stored link is in both hosts' rows");
        row.peers.erase(row.peers.begin() + static_cast<std::ptrdiff_t>(at));
        row.slots.erase(row.slots.begin() + static_cast<std::ptrdiff_t>(at));
      }
      links_[slot] = PhysicalLink{};
      free_slots_.push_back(slot);
    }
  } else {
    PhysicalLink link;
    update(link);
    if (link_stored(link)) {
      if (free_slots_.empty()) {
        free_slots_.push_back(static_cast<std::uint32_t>(links_.size()));
        links_.emplace_back();
      }
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      links_[slot] = std::move(link);
      for (const auto& [x, y] : {std::pair(a, b), std::pair(b, a)}) {
        LinkRow& row = link_rows_[x];
        const auto at = static_cast<std::ptrdiff_t>(row.lower(y));
        row.peers.insert(row.peers.begin() + at, y);
        row.slots.insert(row.slots.begin() + at, slot);
      }
    }
  }
  notify({.event = ModelEvent::kPhysicalLinkChanged, .host_a = a,
          .host_b = b});
}

void DeploymentModel::set_physical_link(HostId a, HostId b,
                                        PhysicalLink link) {
  write_link(a, b, [&](PhysicalLink& entry) { entry = std::move(link); });
}

void DeploymentModel::clear_physical_link(HostId a, HostId b) {
  if (a == b) return;
  write_link(a, b, [](PhysicalLink& entry) { entry = PhysicalLink{}; });
}

const PhysicalLink& DeploymentModel::physical_link(HostId a, HostId b) const {
  check_host(a);
  check_host(b);
  if (a == b) return local_link();
  const PhysicalLink* link = find_link(a, b);
  if (link == nullptr || (link->bandwidth <= 0.0 && link->reliability <= 0.0))
    return kAbsentLink;
  return *link;
}

bool DeploymentModel::connected(HostId a, HostId b) const {
  // A link physical_link() reports as disconnected has bandwidth <= 0.
  return a != b && physical_link(a, b).bandwidth > 0.0;
}

std::span<const HostId> DeploymentModel::physical_neighbors(HostId h) const {
  check_host(h);
  return link_rows_[h].peers;
}

void DeploymentModel::set_link_reliability(HostId a, HostId b,
                                           double reliability) {
  write_link(a, b,
             [reliability](PhysicalLink& entry) {
               entry.reliability = reliability;
             });
}

void DeploymentModel::set_link_bandwidth(HostId a, HostId b,
                                         double bandwidth) {
  write_link(a, b,
             [bandwidth](PhysicalLink& entry) { entry.bandwidth = bandwidth; });
}

void DeploymentModel::set_link_delay(HostId a, HostId b, double delay_ms) {
  write_link(a, b,
             [delay_ms](PhysicalLink& entry) { entry.delay_ms = delay_ms; });
}

void DeploymentModel::set_logical_link(ComponentId a, ComponentId b,
                                       LogicalLink link) {
  if (a == b)
    throw std::invalid_argument("DeploymentModel: self logical link");
  check_component(a);
  check_component(b);
  logical_[logi_key(a, b)] = std::move(link);
  interactions_dirty_ = true;
  notify({.event = ModelEvent::kLogicalLinkChanged, .component_a = a,
          .component_b = b});
}

void DeploymentModel::clear_logical_link(ComponentId a, ComponentId b) {
  if (a == b) return;
  check_component(a);
  check_component(b);
  logical_.erase(logi_key(a, b));
  interactions_dirty_ = true;
  notify({.event = ModelEvent::kLogicalLinkChanged, .component_a = a,
          .component_b = b});
}

const LogicalLink& DeploymentModel::logical_link(ComponentId a,
                                                 ComponentId b) const {
  check_component(a);
  check_component(b);
  if (a == b) return no_interaction();
  const auto it = logical_.find(logi_key(a, b));
  return it == logical_.end() ? no_interaction() : it->second;
}

std::span<const Interaction> DeploymentModel::interactions() const {
  if (interactions_dirty_) {
    interactions_cache_.clear();
    interactions_cache_.reserve(logical_.size());
    for (const auto& [key, link] : logical_) {
      if (link.frequency > 0.0) {
        interactions_cache_.push_back(
            {static_cast<ComponentId>(key >> 32),
             static_cast<ComponentId>(key & 0xffffffffu), link.frequency,
             link.avg_event_size});
      }
    }
    // Canonical (a, b) order: the sparse map iterates in hash order, but
    // every consumer (incremental adjacency, xADL serialization, DecAp's
    // auction indexing) relies on a deterministic interaction sequence.
    std::sort(interactions_cache_.begin(), interactions_cache_.end(),
              [](const Interaction& x, const Interaction& y) {
                return x.a != y.a ? x.a < y.a : x.b < y.b;
              });
    interactions_dirty_ = false;
  }
  DIF_ASSERT(interactions_cache_.size() <= logical_.size(),
             "interaction cache cannot exceed the stored link count");
  return interactions_cache_;
}

double DeploymentModel::total_interaction_frequency() const {
  double total = 0.0;
  for (const Interaction& ix : interactions()) total += ix.frequency;
  return total;
}

std::size_t DeploymentModel::add_listener(Listener listener) {
  const std::size_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void DeploymentModel::remove_listener(std::size_t id) {
  std::erase_if(listeners_, [id](const auto& p) { return p.first == id; });
}

std::size_t DeploymentModel::add_detail_listener(DetailListener listener) {
  const std::size_t id = next_listener_id_++;
  detail_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void DeploymentModel::remove_detail_listener(std::size_t id) {
  std::erase_if(detail_listeners_,
                [id](const auto& p) { return p.first == id; });
}

void DeploymentModel::notify_entity_changed() {
  notify({.event = ModelEvent::kEntityParamChanged});
}

void DeploymentModel::notify(const ModelChange& change) {
  for (const auto& [id, listener] : listeners_) listener(change.event);
  for (const auto& [id, listener] : detail_listeners_) listener(change);
}

}  // namespace dif::model
