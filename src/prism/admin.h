// AdminComponent: Prism-MW's meta-level component for architectural
// self-awareness (paper Section 4.2/4.3).
//
// An ExtensibleComponent holding a reference to its local Architecture, it
// (1) periodically gathers the host's monitoring data — component inventory,
// event frequencies, link reliabilities — passes each series through a
// StabilityFilter, and ships stable values to the DeployerComponent as
// serialized events; and (2) executes its side of the redeployment protocol:
//
//   * "__new_config"        (from Deployer): request missing components from
//                           the hosts currently holding them;
//   * "__request_component" (from a peer Admin): detach the component,
//                           serialize it, and send it to the requester;
//   * "__component_transfer": reconstitute the migrant component via the
//                           ComponentFactory, attach + weld it, broadcast a
//                           location update, and ack the Deployer.
//
// While a component is in flight, events addressed to it land in the
// architecture's undeliverable hook, which the Admin owns: known-elsewhere
// events are re-routed, unknown ones are buffered and flushed on the next
// location update (the paper's effector "buffering/relaying" duty).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "obs/instruments.h"
#include "prism/architecture.h"
#include "prism/distribution.h"
#include "prism/monitors.h"

namespace dif::prism {

/// Reconstitutes migrated components from their serialized form.
class ComponentFactory {
 public:
  using Creator = std::function<std::unique_ptr<Component>(std::string name)>;

  void register_type(std::string type_name, Creator creator);
  [[nodiscard]] bool contains(const std::string& type_name) const;
  /// Throws std::out_of_range for unregistered types.
  [[nodiscard]] std::unique_ptr<Component> create(const std::string& type_name,
                                                  std::string name) const;

 private:
  std::map<std::string, Creator> creators_;
};

/// Canonical name of the admin component on host `h` ("__admin@h").
[[nodiscard]] std::string admin_name(model::HostId host);

/// Canonical name of the deployer component ("__deployer").
[[nodiscard]] inline std::string deployer_name() { return "__deployer"; }

class AdminComponent : public Component {
 public:
  struct Params {
    /// Cadence of monitoring collection / reporting.
    double report_interval_ms = 1000.0;
    /// Stability filter: consecutive windows and epsilon (paper Section 3.1).
    std::size_t stability_window = 3;
    double stability_epsilon = 0.05;
    /// Component transfers ride unreliable links; the shipping admin keeps
    /// the serialized component and retransmits until a location update
    /// confirms arrival (or attempts run out — the component is then
    /// reattached locally rather than lost).
    double transfer_retry_interval_ms = 1'000.0;
    int transfer_max_attempts = 20;
    /// Memory capacity this admin enforces when voting on a transactional
    /// redeployment's prepare phase (KB). <= 0 leaves capacity unmodelled:
    /// the admin always votes yes but still tracks reservations.
    double memory_capacity_kb = 0.0;
    /// Reservations taken in a prepare phase expire after this long without
    /// the reserved component arriving (the round died without an __abort).
    double reservation_ttl_ms = 30'000.0;
    /// Every host of the deployment (filled in by the instantiation).
    /// Ownership claims flood to direct peers, but the flood rides each
    /// direct link exactly once — a non-adjacent host, or a peer behind a
    /// dead/degraded link, would never hear it. Every admin in this list
    /// therefore additionally gets a *directed* copy of each claim, which
    /// the location-table/next-hop routing can relay host-by-host around
    /// the broken link. Empty list = flood-only (the legacy behaviour).
    std::vector<model::HostId> fleet;
  };

  /// The connector, factory, and monitors must outlive the admin. Monitors
  /// may be null (monitoring disabled, redeployment still works).
  AdminComponent(model::HostId host, DistributionConnector& connector,
                 ComponentFactory& factory,
                 std::shared_ptr<EvtFrequencyMonitor> freq_monitor,
                 NetworkReliabilityMonitor* reliability_monitor,
                 Params params);

  [[nodiscard]] std::string type_name() const override { return "__admin"; }
  [[nodiscard]] model::HostId host_id() const noexcept { return host_; }

  /// Begins periodic monitoring reports (requires a timer-capable scaffold).
  void start_reporting();
  void stop_reporting() noexcept { reporting_ = false; }

  void set_instruments(obs::Instruments instruments) noexcept {
    obs_ = instruments;
  }

  /// Arms the recovery-era ownership rules (heal/): a location claim with a
  /// strictly newer custody version sheds the local copy outright, and the
  /// forked-authoritative tie-break applies only between claims at the same
  /// custody version. Off by default so recovery-off runs keep pre-heal
  /// conflict semantics byte for byte; HealController arms every admin on
  /// attach.
  void set_custody_precedence(bool on) noexcept { custody_precedence_ = on; }

  void handle(const Event& event) override;
  void on_attached() override;

  // --- crash / restart (the paper's device-reboot dependability event) ----

  /// Models the host process dying: all volatile state is discarded —
  /// buffered events, stability-filter history, the reporting cadence, and
  /// the retry bookkeeping of unconfirmed outbound transfers. The
  /// serialized images of those transfers are set aside as stable storage
  /// (a component whose migration never confirmed still exists on this
  /// host's disk) for recovery at restart(). While crashed, every incoming
  /// event is ignored. Idempotent.
  virtual void crash();

  /// Recovery and re-registration. Unconfirmed outbound transfers set
  /// aside by crash() are reconstituted locally as *provisional* copies
  /// (the ownership-resolution protocol destroys the surplus copy when the
  /// transfer had actually arrived), then a __location_update is broadcast
  /// for every locally deployed application component so the deployer and
  /// peer admins rebuild their location tables. Reporting resumes when
  /// `resume_reporting`.
  virtual void restart(bool resume_reporting);

  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  /// Number of events currently buffered for in-flight components.
  [[nodiscard]] std::size_t buffered_events() const;
  /// Migrations this admin completed (components received and reattached).
  [[nodiscard]] std::uint64_t components_received() const noexcept {
    return components_received_;
  }
  [[nodiscard]] std::uint64_t components_shipped() const noexcept {
    return components_shipped_;
  }

 protected:
  [[nodiscard]] DistributionConnector& connector() noexcept {
    return connector_;
  }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Sends `event` toward the deployer component.
  void send_to_deployer(Event event);

  /// Subclass constructor with an explicit component name (DeployerComponent
  /// runs beside the master host's regular admin under its own identity).
  AdminComponent(std::string component_name, model::HostId host,
                 DistributionConnector& connector, ComponentFactory& factory,
                 std::shared_ptr<EvtFrequencyMonitor> freq_monitor,
                 NetworkReliabilityMonitor* reliability_monitor,
                 Params params);

  obs::Instruments obs_;

 private:
  void collect_and_report();
  void handle_prepare(const Event& event);
  void handle_abort(const Event& event);
  void handle_new_config(const Event& event);
  void handle_request_component(const Event& event);
  void handle_component_transfer(const Event& event);
  void handle_location_update(const Event& event);
  void on_undeliverable(Event event);
  void flush_buffer(const std::string& component);

  model::HostId host_;
  DistributionConnector& connector_;
  ComponentFactory& factory_;
  std::shared_ptr<EvtFrequencyMonitor> freq_monitor_;
  NetworkReliabilityMonitor* reliability_monitor_;
  Params params_;
  bool reporting_ = false;

  void schedule_transfer_retry(const std::string& component);
  /// Broadcasts a __location_update claim. When the claim concludes a
  /// migration of a known redeployment round, `epoch` stamps the update so
  /// the deployer can count it as that round's acknowledgement.
  void announce_ownership(const std::string& component, bool restored,
                          std::optional<double> epoch = std::nullopt);
  void schedule_restored_reclaims(const std::string& component,
                                  double delay_ms);
  /// Repeats the authoritative claim for a *contested* component (another
  /// host also claims to hold it) with capped exponential backoff. A single
  /// re-assertion can be eaten by a fault window, leaving both copies alive
  /// and silent; bounded repetition stretches the claim past any finite
  /// outage. The losing copy stands down silently, so repetition is bounded
  /// by count rather than by an acknowledgement.
  void schedule_contested_reasserts(const std::string& component,
                                    double delay_ms);

  /// Stability filters keyed per monitored series ("freq:a->b", "rel:3").
  std::map<std::string, StabilityFilter> filters_;
  /// Components this admin re-attached after a failed outbound transfer.
  /// Such a copy is *provisional*: if anyone else turns out to hold the
  /// component (the transfer had actually arrived and only the acks were
  /// lost), the restored copy yields and destroys itself — the resolution
  /// protocol that keeps every component existing exactly once.
  bool custody_precedence_ = false;
  std::set<std::string> restored_;
  /// Held components another host has claimed: re-assertion attempts left.
  std::map<std::string, int> contested_;
  static constexpr int kMaxContestedReasserts = 8;
  /// In-flight outbound transfers awaiting arrival confirmation.
  struct PendingTransfer {
    Event transfer;
    model::HostId target = 0;
    int attempts = 0;
  };
  std::map<std::string, PendingTransfer> pending_transfers_;
  /// Custody version per component: every outbound transfer ships the
  /// holder's version + 1 and the receiver records it on attach, so the
  /// version grows by one per hop along a component's migration chain. A
  /// retransmitted transfer whose version is <= our recorded one duplicates
  /// a saga whose custody already moved through this host — it is re-acked
  /// (so the sender releases its retained copy) but never re-attached,
  /// which would resurrect a stale copy of a component living elsewhere.
  std::map<std::string, std::uint64_t> custody_versions_;
  /// Events buffered for components with no known location (bounded).
  std::map<std::string, std::deque<Event>> buffers_;
  static constexpr std::size_t kMaxBufferedPerComponent = 64;
  /// Capacity reserved for inbound components during a prepare phase, keyed
  /// by component: released on arrival, __abort, or TTL expiry.
  struct Reservation {
    double epoch = 0.0;
    double memory_kb = 0.0;
  };
  std::map<std::string, Reservation> reservations_;

  bool crashed_ = false;
  /// Serialized transfers rescued by crash() for restart-time recovery.
  std::vector<Event> crash_recovery_;

  std::uint64_t components_received_ = 0;
  std::uint64_t components_shipped_ = 0;
};

}  // namespace dif::prism
