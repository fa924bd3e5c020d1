// Prism-MW DistributionConnector: routes events across address spaces.
//
// "A distributed application is implemented as a set of interacting
// Architecture objects, communicating via DistributionConnectors across
// process or machine boundaries" (paper Section 4.2). This implementation
// rides the simulated network: events are serialized, subjected to the
// link's reliability/bandwidth/delay, and deserialized on the peer.
//
// One DistributionConnector per host: it registers itself as the host's
// network receiver and demultiplexes application events from the ping
// traffic used by NetworkReliabilityMonitor.
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>

#include "prism/brick.h"
#include "sim/network.h"

namespace dif::prism {

/// Channel label stamped on serialized Prism events riding the simulated
/// network. Exposed so message-level interceptors (the chaos layer's
/// protocol fuzzer) can recognize — and deserialize — event traffic without
/// touching ping/pong or transfer framing.
inline constexpr const char* kEventChannel = "prism.event";

class DistributionConnector final : public Connector {
 public:
  /// Registers as `host`'s receiver in `network` (which must outlive the
  /// connector).
  DistributionConnector(std::string name, sim::SimNetwork& network,
                        model::HostId host);
  ~DistributionConnector() override;

  [[nodiscard]] model::HostId host() const noexcept { return host_; }

  // --- peer management -------------------------------------------------------

  /// Declares a host this connector exchanges events with directly.
  void add_peer(model::HostId peer);
  void remove_peer(model::HostId peer);
  [[nodiscard]] const std::vector<model::HostId>& peers() const noexcept {
    return peers_;
  }

  /// Host that mediates delivery to non-peer hosts (the paper's Deployer-
  /// mediated exchange between devices that are not directly connected).
  void set_mediator(model::HostId host) { mediator_ = host; }

  /// Static next-hop route: events for a component on `destination` may be
  /// forwarded to direct peer `via` when neither direct delivery nor
  /// mediation can reach it. The mediator scheme assumes the master host is
  /// adjacent to every other host; on sparse topologies that assumption
  /// breaks — most damagingly *on the master itself*, which has no mediator
  /// to lean on and silently dropped traffic to its non-neighbors. Routes
  /// are filled in from the design-time topology by the instantiations.
  void set_next_hop(model::HostId destination, model::HostId via);

  // --- component location table ------------------------------------------------

  /// Records that `component` currently lives on `host` (updated by
  /// location-update events during redeployment).
  void set_location(NameId component, model::HostId host);
  [[nodiscard]] std::optional<model::HostId> location(NameId component) const;

  // --- routing ------------------------------------------------------------------

  /// Local routing as Connector, plus network forwarding: directed events
  /// travel to their destination's host per the location table (via the
  /// mediator when that host is not a peer); broadcast events that
  /// originated locally flood to all peers.
  void route(const Event& event, Component* sender) override;

  /// Re-injects an event that already crossed the network once (admin
  /// re-routing / buffer flushing): clears the remote mark so the event may
  /// be forwarded again toward its destination's current host.
  void resend(Event event);

  // --- store-and-forward (paper §6 future work: "queuing of remote calls") --

  /// Enables disconnection queuing: events that cannot be sent because the
  /// link is severed/absent are held (up to `max_queued` per peer, oldest
  /// dropped first) and retried every `retry_interval_ms` until the link
  /// returns. Off by default — without it, unroutable events count into
  /// undeliverable_remote() and are lost, the paper's base behaviour.
  void enable_store_and_forward(double retry_interval_ms = 1'000.0,
                                std::size_t max_queued = 256);

  [[nodiscard]] std::size_t queued_messages() const;
  [[nodiscard]] std::uint64_t flushed_messages() const noexcept {
    return flushed_;
  }

  /// Counters for events this connector could not forward.
  [[nodiscard]] std::uint64_t undeliverable_remote() const noexcept {
    return undeliverable_remote_;
  }

  // --- ping support (NetworkReliabilityMonitor) ----------------------------------

  /// Probes carry no payload: the pong names only the peer that reflected
  /// it, which is all the monitor counts.
  using PongHandler = std::function<void(model::HostId peer)>;
  void send_ping(model::HostId peer);
  void set_pong_handler(PongHandler handler) {
    pong_handler_ = std::move(handler);
  }

 private:
  void on_net_message(const sim::NetMessage& message);
  void forward_remote(const Event& event, model::HostId destination);
  void schedule_flush();
  void flush_queues();

  sim::SimNetwork& network_;
  model::HostId host_;
  std::vector<model::HostId> peers_;
  std::optional<model::HostId> mediator_;
  std::unordered_map<model::HostId, model::HostId> next_hops_;
  /// Component host by NameId (kNoHost where unknown).
  std::vector<model::HostId> locations_;
  PongHandler pong_handler_;
  std::uint64_t undeliverable_remote_ = 0;

  bool store_and_forward_ = false;
  double flush_interval_ms_ = 1'000.0;
  std::size_t max_queued_ = 256;
  bool flush_scheduled_ = false;
  std::unordered_map<model::HostId, std::deque<sim::NetMessage>> queues_;
  std::uint64_t flushed_ = 0;
};

}  // namespace dif::prism
