// Prism-MW core class model: Brick, Component, Connector, IScaffold,
// IMonitor (paper Figure 5).
//
// Brick is the abstract base encapsulating what Architectures, Components,
// and Connectors share: a name and an attached set of monitors probing
// runtime behaviour (architectural self-awareness). The Scaffold schedules
// and dispatches events in a decoupled manner — here pluggable between an
// inline dispatcher and one driven by the discrete-event simulator.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "prism/event.h"
#include "sim/simulator.h"

namespace dif::prism {

class Brick;
class Component;
class Connector;
class Architecture;

/// Probes a Brick's runtime behaviour (Prism-MW's IMonitor). Implementations
/// in monitors.h; anything can be plugged in ("addition of new monitoring
/// capabilities via new implementations of IMonitor").
class IMonitor {
 public:
  virtual ~IMonitor() = default;
  /// `brick` sent `event` (components only).
  virtual void on_event_sent(const Brick& brick, const Event& event) = 0;
  /// `brick` received/handled `event`.
  virtual void on_event_received(const Brick& brick, const Event& event) = 0;
};

/// Event dispatch strategy (Prism-MW's IScaffold).
class IScaffold {
 public:
  virtual ~IScaffold() = default;
  /// Enqueues `task` for execution (possibly immediately).
  virtual void dispatch(std::function<void()> task) = 0;
  /// Runs `task` after `delay_ms` (periodic monitors/admins rely on this).
  virtual void schedule(double delay_ms, std::function<void()> task) = 0;
  /// Current time in ms (simulated or real), for monitors' window math.
  [[nodiscard]] virtual double now_ms() const = 0;
};

/// Executes tasks immediately on the caller's stack. Zero queueing overhead;
/// used by the E6 overhead bench as the no-middleware-queue baseline.
/// Supports no timers: schedule() drops the task (periodic machinery such as
/// AdminComponent reporting requires a SimScaffold).
class InlineScaffold final : public IScaffold {
 public:
  void dispatch(std::function<void()> task) override { task(); }
  void schedule(double /*delay_ms*/, std::function<void()> /*task*/) override {
  }
  [[nodiscard]] double now_ms() const override { return 0.0; }
};

/// Dispatches through the discrete-event simulator: every event delivery is
/// a separate simulation event at the current timestamp, giving the
/// decoupled scheduling semantics of Prism-MW's thread-pool scaffold while
/// staying deterministic.
class SimScaffold final : public IScaffold {
 public:
  explicit SimScaffold(sim::Simulator& simulator) : sim_(simulator) {}
  void dispatch(std::function<void()> task) override {
    sim_.schedule_after(0.0, std::move(task));
  }
  void schedule(double delay_ms, std::function<void()> task) override {
    sim_.schedule_after(delay_ms, std::move(task));
  }
  [[nodiscard]] double now_ms() const override { return sim_.now(); }

 private:
  sim::Simulator& sim_;
};

/// Abstract base of Architecture, Component, and Connector.
class Brick {
 public:
  explicit Brick(std::string name)
      : name_(std::move(name)), name_id_(intern(name_)) {}
  virtual ~Brick() = default;
  Brick(const Brick&) = delete;
  Brick& operator=(const Brick&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] NameId name_id() const noexcept { return name_id_; }

  void add_monitor(std::shared_ptr<IMonitor> monitor);
  void remove_monitor(const IMonitor* monitor);
  [[nodiscard]] const std::vector<std::shared_ptr<IMonitor>>& monitors()
      const noexcept {
    return monitors_;
  }

 protected:
  void notify_sent(const Event& event) const;
  void notify_received(const Event& event) const;

 private:
  std::string name_;
  NameId name_id_;
  std::vector<std::shared_ptr<IMonitor>> monitors_;
};

/// An application component: handles events, sends events through the
/// connectors it is welded to, and can be detached, serialized, shipped,
/// and reattached by the redeployment machinery.
class Component : public Brick {
 public:
  explicit Component(std::string name) : Brick(std::move(name)) {}

  /// Reacts to an event routed to this component.
  virtual void handle(const Event& event) = 0;

  /// Type identifier used by ComponentFactory to reconstitute the component
  /// after migration.
  [[nodiscard]] virtual std::string type_name() const = 0;

  /// Serializes migratable state (default: stateless).
  virtual void serialize_state(ByteWriter& writer) const { (void)writer; }
  /// Restores state written by serialize_state.
  virtual void restore_state(ByteReader& reader) { (void)reader; }

  /// Approximate memory footprint (KB) reported to monitoring.
  [[nodiscard]] virtual double memory_kb() const { return 1.0; }

  /// Emits `event` on every welded connector (stamps provenance).
  void send(Event event);

  [[nodiscard]] Architecture* architecture() const noexcept { return arch_; }

  /// Lifecycle hook invoked after (re)attachment to an architecture.
  virtual void on_attached() {}
  /// Lifecycle hook invoked before detachment.
  virtual void on_detached() {}

 private:
  friend class Architecture;
  friend class Connector;
  void deliver(const Event& event);

  Architecture* arch_ = nullptr;
  std::vector<Connector*> connectors_;
};

/// Routes events among the components welded to it. Subclassed by
/// DistributionConnector for cross-host routing.
class Connector : public Brick {
 public:
  explicit Connector(std::string name) : Brick(std::move(name)) {}

  /// Routes `event` coming from `sender` (nullptr for externally injected
  /// events): delivered to the destination component when it is welded
  /// here, otherwise broadcast to all welded components except the sender.
  virtual void route(const Event& event, Component* sender);

  [[nodiscard]] Architecture* architecture() const noexcept { return arch_; }
  [[nodiscard]] const std::vector<Component*>& welded() const noexcept {
    return components_;
  }

 protected:
  /// Local-only delivery used by route() implementations.
  void deliver_locally(const Event& event, Component* sender);

 private:
  friend class Architecture;
  Architecture* arch_ = nullptr;
  std::vector<Component*> components_;
};

}  // namespace dif::prism
