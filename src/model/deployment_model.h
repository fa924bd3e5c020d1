// The framework's Model component: the representation of a distributed
// system's deployment architecture.
//
// Per the paper (Section 3.1), the model has four kinds of parts — hosts,
// components, physical links between hosts, and logical links between
// components — each carrying an arbitrary set of parameters. First-class
// fields cover the parameters used by the paper's availability/latency
// scenario (Section 5.1); everything else goes in per-entity PropertyMaps.
#pragma once

#include <algorithm>
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
/// is not +0.0 (NaN and -0.0 count), or it carries properties. A link that
/// is not stored is bit-for-bit the default all-zero PhysicalLink, which is
/// what a host pair that was never linked or was cleared reads as.
[[nodiscard]] bool link_stored(const PhysicalLink& link) noexcept;

/// The all-zero link every host pair without a stored link reads as.
inline const PhysicalLink kAbsentLink{};

class DeploymentModel;

/// Read-only view of the model's physical links for hot loops (the
/// incremental evaluator's per-move term updates). `at(a, b)` matches
/// physical_link(a, b) for a != b without the range checks or the
/// disconnected-link canonicalization: a stored pair reads its entry, any
/// other pair kAbsentLink, so reliability/bandwidth/delay read the same
/// either way. Valid as long as the model it reads lives.
struct PhysicalLinkTable {
  const DeploymentModel* model = nullptr;

  [[nodiscard]] const PhysicalLink& at(HostId a, HostId b) const;
};

/// The deployment-architecture model.
///
/// Invariants:
///  * physical and logical links are symmetric: a physical link is one
///    entry reached from both hosts' rows, a logical link is stored under
///    its canonical pair (a < b);
///  * self links are rejected (a local interaction needs no link; a host
///    is always perfectly connected to itself);
///  * both kinds of link are stored sparsely: a physical link exactly when
///    link_stored() holds, so memory is O(k + links), not O(k^2).
///
/// Not thread-safe; the framework owns it from a single (simulated) thread.
class DeploymentModel {
 public:
  DeploymentModel() = default;

  // --- topology -----------------------------------------------------------

  HostId add_host(Host host);
  ComponentId add_component(SoftwareComponent component);

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
  /// For unconnected pairs returns the all-zero disconnected link. The
  /// reference stays valid across writes to stored links; a write that
  /// inserts a link may move the stored entries.
  [[nodiscard]] const PhysicalLink& physical_link(HostId a, HostId b) const;

  /// True when a != b and a physical link with bandwidth > 0 exists.
  [[nodiscard]] bool connected(HostId a, HostId b) const;

  /// The hosts `h` has a stored physical link to (see link_stored), in
  /// ascending id order: the store's row of `h`. Invalidated by add_host
  /// and by a write that adds or removes a link, not by monitor updates.
  [[nodiscard]] std::span<const HostId> physical_neighbors(HostId h) const;

  /// Visits every stored physical link as visit(a, b, link) with a < b, in
  /// ascending (a, b) order — O(k + stored links). `link` is the stored
  /// entry, not canonicalized (see physical_link); connected pairs are the
  /// ones with link.bandwidth > 0. `visit` may rewrite the link it is
  /// given as long as every pair stays stored.
  template <typename Visit>
  void for_each_physical_link(Visit&& visit) const {
    for (std::size_t a = 0; a < link_rows_.size(); ++a) {
      const LinkRow& row = link_rows_[a];
      const auto ha = static_cast<HostId>(a);
      for (std::size_t i = row.lower(ha); i < row.peers.size(); ++i)
        visit(ha, row.peers[i], links_[row.slots[i]]);
    }
  }

  /// Unchecked view for hot loops; see PhysicalLinkTable.
  [[nodiscard]] PhysicalLinkTable physical_link_table() const noexcept {
    return {this};
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

 private:
  friend struct PhysicalLinkTable;

  /// One host's stored peers in ascending id order, each beside the slot
  /// in links_ of the link to it.
  struct LinkRow {
    std::vector<HostId> peers;
    std::vector<std::uint32_t> slots;

    /// Position of `peer` (where it would go when absent). A binary search
    /// whose halving step is a select, not a branch: the evaluator's probes
    /// read links to unpredictable peers, and std::lower_bound's
    /// mispredicted branches cost decide-1k about a quarter of its step time.
    [[nodiscard]] std::size_t lower(HostId peer) const noexcept {
      std::size_t n = peers.size();
      if (n == 0) return 0;
      std::size_t base = 0;
      while (n > 1) {
        const std::size_t half = n / 2;
        base = peers[base + half] < peer ? base + half : base;
        n -= half;
      }
      return base + (peers[base] < peer ? 1 : 0);
    }
    [[nodiscard]] bool holds(std::size_t i, HostId peer) const noexcept {
      return i < peers.size() && peers[i] == peer;
    }
  };

  /// The stored link of (a, b), or nullptr; ids are not range-checked.
  [[nodiscard]] const PhysicalLink* find_link(HostId a,
                                              HostId b) const noexcept {
    const LinkRow& row = link_rows_[a];
    const std::size_t i = row.lower(b);
    return row.holds(i, b) ? &links_[row.slots[i]] : nullptr;
  }
  [[nodiscard]] static std::uint64_t logi_key(ComponentId a, ComponentId b);
  void check_host(HostId id) const;
  void check_component(ComponentId id) const;
  void notify(const ModelChange& change);
  /// Applies `update` to the link of (a, b): in place when the pair is
  /// stored, else to an all-zero link. The pair is inserted when the result
  /// is stored and was not, and erased when it no longer is.
  template <typename Update>
  void write_link(HostId a, HostId b, Update&& update);

  std::vector<Host> hosts_;
  std::vector<SoftwareComponent> components_;
  /// Sparse physical links: each stored link's entry once in links_,
  /// reached from the rows of both its hosts. Erased entries are reset to
  /// all-zero and their slots reused (free_slots_). A dense k-by-k matrix
  /// took 72 MiB at 1024 hosts, where links_ holds ~4k entries.
  std::vector<LinkRow> link_rows_;
  std::vector<PhysicalLink> links_;
  std::vector<std::uint32_t> free_slots_;
  /// Sparse logical links keyed by canonical pair (lo << 32 | hi). Dense
  /// n-by-n storage was quadratic in components — multiple GB at the 10k+
  /// component fleet sizes bench_scalability sweeps — while real interaction
  /// graphs are sparse.
  std::unordered_map<std::uint64_t, LogicalLink> logical_;
  PropertyMap properties_;

  mutable std::vector<Interaction> interactions_cache_;
  mutable bool interactions_dirty_ = true;

  std::vector<std::pair<std::size_t, Listener>> listeners_;
  std::vector<std::pair<std::size_t, DetailListener>> detail_listeners_;
  std::size_t next_listener_id_ = 0;
};

inline const PhysicalLink& PhysicalLinkTable::at(HostId a, HostId b) const {
  const PhysicalLink* link = model->find_link(a, b);
  return link != nullptr ? *link : kAbsentLink;
}

}  // namespace dif::model
