// The framework's Model component: the representation of a distributed
// system's deployment architecture.
//
// Per the paper (Section 3.1), the model has four kinds of parts — hosts,
// components, physical links between hosts, and logical links between
// components — each carrying an arbitrary set of parameters. First-class
// fields cover the parameters used by the paper's availability/latency
// scenario (Section 5.1); everything else goes in per-entity PropertyMaps.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/ids.h"
#include "model/property_map.h"

namespace dif::model {

/// A hardware host (PC, PDA, ...).
struct Host {
  std::string name;
  /// Memory available for hosting components (KB).
  double memory_capacity = 0.0;
  /// Relative CPU capacity (arbitrary units); 0 means "not modelled".
  double cpu_capacity = 0.0;
  /// Extensible parameters (battery power, installed software, ...).
  PropertyMap properties = {};
};

/// A software component.
struct SoftwareComponent {
  std::string name;
  /// Memory the component requires on its host (KB).
  double memory_size = 0.0;
  /// CPU load the component induces (same units as Host::cpu_capacity).
  double cpu_load = 0.0;
  /// Extensible parameters (criticality, version, ...).
  PropertyMap properties = {};
};

/// A physical network link between two hosts. Absent link == disconnected.
struct PhysicalLink {
  /// Probability that the link is up / a message survives it, in [0, 1].
  double reliability = 0.0;
  /// Effective bandwidth (KB/s). 0 means disconnected.
  double bandwidth = 0.0;
  /// One-way transmission delay (ms).
  double delay_ms = 0.0;
  /// Extensible parameters (security level, monetary cost, ...).
  PropertyMap properties = {};
};

/// A logical interaction between two components.
struct LogicalLink {
  /// Interaction frequency (events per second).
  double frequency = 0.0;
  /// Average event size (KB).
  double avg_event_size = 0.0;
  /// Extensible parameters (criticality, required security, ...).
  PropertyMap properties = {};
};

/// A flattened, cached view of one interacting component pair; algorithms
/// iterate these instead of scanning the full n-by-n matrix.
struct Interaction {
  ComponentId a = 0;
  ComponentId b = 0;
  double frequency = 0.0;
  double avg_event_size = 0.0;
};

/// Coarse change notification, used by DeSi's reactive Model and by monitors
/// feeding runtime values into the model.
enum class ModelEvent {
  kTopologyChanged,       // host/component added
  kPhysicalLinkChanged,   // reliability/bandwidth/delay updated
  kLogicalLinkChanged,    // frequency/event size updated
  kEntityParamChanged,    // host/component field or property updated
};

/// Fine-grained change notification: the coarse event plus the entities it
/// touched, when known. Warm-started re-optimization keys on this — the
/// ImprovementLoop turns "link (a,b) changed" into a dirty-component set so
/// the next analysis scales with the delta, not the fleet. Sentinel ids
/// (kNoHost / kNoComponent) mean "not attributable to specific entities";
/// consumers must then treat the whole model as dirty.
struct ModelChange {
  ModelEvent event = ModelEvent::kEntityParamChanged;
  HostId host_a = kNoHost;
  HostId host_b = kNoHost;
  ComponentId component_a = kNoComponent;
  ComponentId component_b = kNoComponent;
};

/// True when the model stores `link`: any of reliability, bandwidth or delay
/// is not +0.0 (NaN and -0.0 count), or it carries properties. An entry that
/// is not stored is bit-for-bit the default all-zero PhysicalLink, which is
/// what the matrix holds for a host pair that was never linked or was
/// cleared; physical_neighbors() indexes exactly the stored entries.
[[nodiscard]] bool link_stored(const PhysicalLink& link) noexcept;

/// Read-only view of the dense physical-link matrix for hot loops (the
/// incremental evaluator's per-move term updates). `at(a, b)` matches
/// physical_link(a, b) for a != b without the range checks or the
/// disconnected-link canonicalization (absent links are stored all-zero, so
/// reliability/bandwidth/delay read the same either way). Invalidated by
/// add_host; callers hold it only across a model-stable hot section.
struct PhysicalLinkTable {
  const PhysicalLink* data = nullptr;
  std::size_t dim = 0;  // row stride (matrix capacity, >= host count)

  [[nodiscard]] const PhysicalLink& at(HostId a, HostId b) const {
    const auto lo = a < b ? a : b;
    const auto hi = a < b ? b : a;
    return data[static_cast<std::size_t>(lo) * dim + hi];
  }
};

/// The deployment-architecture model.
///
/// Invariants:
///  * physical and logical links are symmetric (stored canonically, a <= b);
///  * self links are rejected (a local interaction needs no link; a host
///    is always perfectly connected to itself);
///  * the physical matrix is kept sized to the current host count (with
///    geometric spare capacity); logical links are stored sparsely.
///
/// Not thread-safe; the framework owns it from a single (simulated) thread.
class DeploymentModel {
 public:
  DeploymentModel() = default;

  // --- topology -----------------------------------------------------------

  HostId add_host(Host host);
  ComponentId add_component(SoftwareComponent component);

  /// Sizes the physical-link matrix for `n` hosts up front, so that adding
  /// them one by one never regrows it (a regrowth holds the old and the new
  /// matrix at once). Does not add hosts.
  void reserve_hosts(std::size_t n);

  [[nodiscard]] std::size_t host_count() const noexcept {
    return hosts_.size();
  }
  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

  [[nodiscard]] const Host& host(HostId id) const { return hosts_.at(id); }
  [[nodiscard]] Host& host(HostId id) { return hosts_.at(id); }
  [[nodiscard]] const SoftwareComponent& component(ComponentId id) const {
    return components_.at(id);
  }
  [[nodiscard]] SoftwareComponent& component(ComponentId id) {
    return components_.at(id);
  }

  /// Finds a host/component by name; throws std::out_of_range when absent.
  [[nodiscard]] HostId host_by_name(std::string_view name) const;
  [[nodiscard]] ComponentId component_by_name(std::string_view name) const;
  /// The component named `name`, or nullopt when the model has none (names
  /// read from files and from the wire resolve through this).
  [[nodiscard]] std::optional<ComponentId> find_component(
      std::string_view name) const;

  // --- regions ------------------------------------------------------------

  /// Region/zone topology: hosts sharing a region id are assumed to fail
  /// together under correlated (zone-level) faults, which is what the
  /// chaos layer's KillRegion workload exercises. The assignment is stored
  /// as the "region" entry of the host's PropertyMap, so xADL descriptions
  /// round-trip it like any other extensible parameter; untagged hosts
  /// default to region 0.
  static constexpr std::string_view kRegionProperty = "region";

  void set_host_region(HostId id, std::size_t region);
  [[nodiscard]] std::size_t host_region(HostId id) const;
  /// 1 + the largest region id in use (1 for an untagged model).
  [[nodiscard]] std::size_t region_count() const;
  [[nodiscard]] std::vector<HostId> hosts_in_region(std::size_t region) const;

  // --- physical links -----------------------------------------------------

  /// Sets the (symmetric) link between two distinct hosts.
  void set_physical_link(HostId a, HostId b, PhysicalLink link);
  /// Removes the link (hosts become disconnected).
  void clear_physical_link(HostId a, HostId b);

  /// Link parameters between two hosts. For a == b returns the implicit
  /// perfect local link (reliability 1, infinite bandwidth, zero delay).
  /// For unconnected pairs returns the all-zero disconnected link.
  [[nodiscard]] const PhysicalLink& physical_link(HostId a, HostId b) const;

  /// True when a != b and a physical link with bandwidth > 0 exists.
  [[nodiscard]] bool connected(HostId a, HostId b) const;

  /// The hosts `h` has a stored physical link to (see link_stored), in
  /// ascending id order: O(degree) instead of a k-entry matrix row. Built
  /// lazily as a CSR index and rebuilt only after a write flips some pair
  /// between stored and absent, so monitor updates to existing links keep
  /// it. The span is invalidated by any such write and by add_host.
  [[nodiscard]] std::span<const HostId> physical_neighbors(HostId h) const;

  /// Raw dense-matrix view for hot loops; see PhysicalLinkTable.
  [[nodiscard]] PhysicalLinkTable physical_link_table() const noexcept {
    return {physical_.data(), phys_dim_};
  }

  /// Mutates a single field of an existing link (monitor update path).
  void set_link_reliability(HostId a, HostId b, double reliability);
  void set_link_bandwidth(HostId a, HostId b, double bandwidth);
  void set_link_delay(HostId a, HostId b, double delay_ms);

  // --- logical links ------------------------------------------------------

  void set_logical_link(ComponentId a, ComponentId b, LogicalLink link);
  void clear_logical_link(ComponentId a, ComponentId b);
  [[nodiscard]] const LogicalLink& logical_link(ComponentId a,
                                                ComponentId b) const;

  /// Visits every stored logical link as visit(a, b, link) with a < b, in
  /// storage (hash) order — O(stored links), not O(n^2). Unlike
  /// interactions() it does not filter on frequency > 0, so validators see
  /// negative and NaN entries too; callers needing a deterministic order
  /// collect and sort.
  template <typename Visit>
  void for_each_logical_link(Visit&& visit) const {
    for (const auto& [key, link] : logical_)
      visit(static_cast<ComponentId>(key >> 32),
            static_cast<ComponentId>(key & 0xffffffffu), link);
  }

  /// All component pairs with frequency > 0. Cached; invalidated on change.
  [[nodiscard]] std::span<const Interaction> interactions() const;

  /// Sum of frequencies over all interactions (denominator of availability).
  [[nodiscard]] double total_interaction_frequency() const;

  // --- extensibility ------------------------------------------------------

  /// Model-level extensible parameters (e.g. global monitoring window).
  [[nodiscard]] PropertyMap& properties() noexcept { return properties_; }
  [[nodiscard]] const PropertyMap& properties() const noexcept {
    return properties_;
  }

  /// Registers a change listener (DeSi view refresh, analyzer profile, ...).
  /// Listeners must outlive the model or be removed via the returned id.
  using Listener = std::function<void(ModelEvent)>;
  std::size_t add_listener(Listener listener);
  void remove_listener(std::size_t id);

  /// Registers a fine-grained change listener (see ModelChange). Coarse and
  /// detail listeners fire on the same notifications; detail listeners
  /// additionally learn which entities changed. Same lifetime rules as
  /// add_listener.
  using DetailListener = std::function<void(const ModelChange&)>;
  std::size_t add_detail_listener(DetailListener listener);
  void remove_detail_listener(std::size_t id);

  /// Notifies listeners that an entity field/property was edited directly
  /// (Host/SoftwareComponent references are mutable for Modifier's benefit).
  void notify_entity_changed();

  // --- validation ---------------------------------------------------------

  /// Throws std::invalid_argument when any stored parameter is out of range
  /// (reliability outside [0,1], negative memory/frequency/bandwidth, ...).
  void validate() const;

 private:
  [[nodiscard]] std::size_t phys_index(HostId a, HostId b) const;
  [[nodiscard]] static std::uint64_t logi_key(ComponentId a, ComponentId b);
  void check_host(HostId id) const;
  void check_component(ComponentId id) const;
  void notify(const ModelChange& change);
  /// Writes `update` into the stored entry of (a, b), marking the neighbor
  /// index stale when the write flips the pair between stored and absent.
  template <typename Update>
  void write_link(HostId a, HostId b, Update&& update);
  void grow_link_matrix(std::size_t dim);
  void rebuild_neighbors() const;

  std::vector<Host> hosts_;
  std::vector<SoftwareComponent> components_;
  /// Dense canonical-pair (a < b) storage, row-major with stride phys_dim_.
  /// The capacity dimension grows geometrically so that adding k hosts one
  /// by one costs amortized O(k^2) total, not O(k^3).
  std::vector<PhysicalLink> physical_;
  std::size_t phys_dim_ = 0;
  /// Sparse logical links keyed by canonical pair (lo << 32 | hi). Dense
  /// n-by-n storage was quadratic in components — multiple GB at the 10k+
  /// component fleet sizes bench_scalability sweeps — while real interaction
  /// graphs are sparse.
  std::unordered_map<std::uint64_t, LogicalLink> logical_;
  PropertyMap properties_;

  mutable std::vector<Interaction> interactions_cache_;
  mutable bool interactions_dirty_ = true;
  /// CSR host adjacency over the stored links: the neighbors of h are
  /// neighbors_[neighbor_offsets_[h] .. neighbor_offsets_[h + 1]).
  mutable std::vector<std::uint32_t> neighbor_offsets_;
  mutable std::vector<HostId> neighbors_;
  mutable bool neighbors_dirty_ = true;

  std::vector<std::pair<std::size_t, Listener>> listeners_;
  std::vector<std::pair<std::size_t, DetailListener>> detail_listeners_;
  std::size_t next_listener_id_ = 0;
};

}  // namespace dif::model
