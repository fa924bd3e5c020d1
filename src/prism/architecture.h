// Prism-MW Architecture: records the configuration of components and
// connectors and provides facilities for their addition, removal, and
// reconnection, possibly at system run-time (paper Section 4.2). A
// distributed application is a set of interacting Architecture objects, one
// per host, communicating via DistributionConnectors.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/ids.h"
#include "prism/brick.h"

namespace dif::prism {

class Architecture final : public Brick {
 public:
  /// `scaffold` must outlive the architecture. `host` is the id of the
  /// (simulated) device this architecture runs on.
  Architecture(std::string name, IScaffold& scaffold, model::HostId host);
  ~Architecture() override;

  [[nodiscard]] IScaffold& scaffold() noexcept { return scaffold_; }
  [[nodiscard]] model::HostId host() const noexcept { return host_; }

  // --- configuration management -------------------------------------------

  /// Adds and takes ownership; returns a reference for welding. Component
  /// names must be unique within the architecture.
  Component& add_component(std::unique_ptr<Component> component);
  Connector& add_connector(std::unique_ptr<Connector> connector);

  /// Welds `component` to `connector` (events flow both ways). Idempotent.
  void weld(Component& component, Connector& connector);
  void unweld(Component& component, Connector& connector);

  /// Detaches the named component: unwelds it everywhere, invokes
  /// on_detached(), and transfers ownership to the caller (the first step
  /// of a migration). Returns nullptr when no such component is attached.
  std::unique_ptr<Component> detach_component(NameId name);

  // --- lookup ---------------------------------------------------------------

  /// By id through the architecture's by-id index.
  [[nodiscard]] Component* find_component(NameId name) const {
    return name < by_id_.size() ? by_id_[name] : nullptr;
  }
  [[nodiscard]] Connector* find_connector(const std::string& name) const;
  /// The attached components, in attachment order.
  [[nodiscard]] std::span<const std::unique_ptr<Component>> components()
      const noexcept {
    return components_;
  }
  [[nodiscard]] std::vector<std::string> component_names() const;
  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

  /// Total memory footprint of local components (KB), for monitoring.
  [[nodiscard]] double total_memory_kb() const;

  // --- event entry points ----------------------------------------------------

  /// Delivers `event` to the named local component via the scaffold. The
  /// component is re-resolved at dispatch time: if it has been detached in
  /// the meantime, the undeliverable handler (if any) gets the event — this
  /// is the hook AdminComponent uses to buffer events during migration.
  void post_to(NameId component, const Event& event);
  /// As above, moving `event` into the dispatch closure instead of copying
  /// it (events deserialized off the network are posted this way).
  void post_to(NameId component, Event&& event);

  /// Handler for events whose destination vanished (migration buffering).
  /// It gets the dispatch closure's event as an rvalue, so it can keep or
  /// resend it without a copy.
  using UndeliverableHandler = std::function<void(Event&&)>;
  void set_undeliverable_handler(UndeliverableHandler handler) {
    undeliverable_ = std::move(handler);
  }

 private:
  /// Asserts (DIF_ASSERT builds) that by_id_ indexes exactly components_.
  void check_index() const;

  IScaffold& scaffold_;
  model::HostId host_;
  std::vector<std::unique_ptr<Component>> components_;
  /// Attached components by NameId (null where none); the event path's
  /// component resolution.
  std::vector<Component*> by_id_;
  std::vector<std::unique_ptr<Connector>> connectors_;
  UndeliverableHandler undeliverable_;
};

}  // namespace dif::prism
