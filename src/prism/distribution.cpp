#include "prism/distribution.h"

#include <algorithm>

#include "prism/architecture.h"
#include "util/logging.h"

namespace dif::prism {

namespace {
constexpr const char* kPingChannel = "prism.ping";
constexpr const char* kPongChannel = "prism.pong";
/// Marks events that already crossed the network once (no re-flooding).
constexpr const char* kRemoteMark = "__remote";
}  // namespace

DistributionConnector::DistributionConnector(std::string name,
                                             sim::SimNetwork& network,
                                             model::HostId host)
    : Connector(std::move(name)), network_(network), host_(host) {
  network_.set_receiver(
      host_, [this](const sim::NetMessage& m) { on_net_message(m); });
}

DistributionConnector::~DistributionConnector() {
  network_.set_receiver(host_, nullptr);
}

void DistributionConnector::add_peer(model::HostId peer) {
  if (peer != host_ && !std::count(peers_.begin(), peers_.end(), peer))
    peers_.push_back(peer);
}

void DistributionConnector::remove_peer(model::HostId peer) {
  std::erase(peers_, peer);
}

void DistributionConnector::set_next_hop(model::HostId destination,
                                         model::HostId via) {
  if (destination != host_) next_hops_[destination] = via;
}

void DistributionConnector::set_location(NameId component,
                                         model::HostId host) {
  if (component >= locations_.size())
    locations_.resize(component + 1, model::kNoHost);
  locations_[component] = host;
}

std::optional<model::HostId> DistributionConnector::location(
    NameId component) const {
  if (component >= locations_.size() ||
      locations_[component] == model::kNoHost)
    return std::nullopt;
  return locations_[component];
}

void DistributionConnector::forward_remote(const Event& event,
                                           model::HostId destination) {
  // The remote mark is applied while encoding, not on a copy of the event.
  const ParamValue mark{true};
  sim::NetMessage message;
  message.from = host_;
  message.to = destination;
  message.channel = kEventChannel;
  message.payload = event.serialize_with(kRemoteMark, mark);
  // Bandwidth accounting: events that carry a whole component are charged
  // the component's memory footprint, not just the serialized control
  // state (the real Prism-MW ships code + heap image; our simulated
  // components only materialize a token state blob).
  message.size_kb = std::max(event.size_kb_with(kRemoteMark, mark),
                             event.get_double("memory_kb").value_or(0.0));
  if (!store_and_forward_) {
    if (!network_.send(std::move(message))) ++undeliverable_remote_;
    return;
  }
  // Store-and-forward sends a copy: the message is queued if the link is
  // down, and retried until it returns.
  if (network_.send(message)) return;
  std::deque<sim::NetMessage>& queue = queues_[destination];
  if (queue.size() >= max_queued_) queue.pop_front();
  queue.push_back(std::move(message));
  schedule_flush();
}

void DistributionConnector::enable_store_and_forward(double retry_interval_ms,
                                                     std::size_t max_queued) {
  store_and_forward_ = true;
  flush_interval_ms_ = retry_interval_ms;
  max_queued_ = max_queued;
}

std::size_t DistributionConnector::queued_messages() const {
  std::size_t total = 0;
  for (const auto& [peer, queue] : queues_) total += queue.size();
  return total;
}

void DistributionConnector::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  network_.simulator().schedule_after(flush_interval_ms_, [this] {
    flush_scheduled_ = false;
    flush_queues();
    if (queued_messages() > 0) schedule_flush();
  });
}

void DistributionConnector::flush_queues() {
  for (auto& [peer, queue] : queues_) {
    while (!queue.empty() && network_.reachable(host_, peer)) {
      sim::NetMessage message = std::move(queue.front());
      queue.pop_front();
      ++flushed_;
      network_.send(std::move(message));
    }
  }
}

void DistributionConnector::route(const Event& event, Component* sender) {
  notify_received(event);
  deliver_locally(event, sender);

  const bool arrived_from_network = event.get_bool(kRemoteMark).value_or(false);
  if (arrived_from_network) return;  // never re-forward remote events

  if (!event.to().empty()) {
    // Directed event: if the destination is local, local delivery covered
    // it; otherwise forward toward its host.
    if (architecture() && architecture()->find_component(event.to_id()))
      return;
    const std::optional<model::HostId> destination = location(event.to_id());
    if (!destination || *destination == host_) {
      ++undeliverable_remote_;
      util::log_debug("prism.dist",
                      "no known location for '", event.to(), "'");
      return;
    }
    const auto is_peer = [this](model::HostId h) {
      return std::count(peers_.begin(), peers_.end(), h) > 0;
    };
    // Next-hop relay is a control-plane overlay: only meta components
    // (admins, the deployer) are chased across multiple hops, because the
    // redeployment and ownership protocols must reach every host. Workload
    // traffic keeps the paper's data-plane model — direct link or mediated
    // by the master — so multi-hop relays do not load links the deployment
    // model says the interaction never crosses.
    const bool meta = is_meta_name(event.to());
    if (is_peer(*destination)) {
      forward_remote(event, *destination);
    } else if (mediator_ && *mediator_ != host_ && is_peer(*mediator_)) {
      // Not directly connected: the Deployer's host mediates (paper §4.3).
      forward_remote(event, *mediator_);
    } else if (const auto hop = meta ? next_hops_.find(*destination)
                                     : next_hops_.end();
               hop != next_hops_.end()) {
      // No usable mediator (we *are* the mediator host, or it is not
      // adjacent either): forward along the static next-hop route. The
      // receiving host's admin re-routes the event onward.
      forward_remote(event, hop->second);
    } else if (mediator_ && *mediator_ != host_) {
      forward_remote(event, *mediator_);
    } else {
      ++undeliverable_remote_;
    }
    return;
  }

  // Broadcast: flood to every peer.
  for (const model::HostId peer : peers_) forward_remote(event, peer);
}

void DistributionConnector::resend(Event event) {
  event.set(kRemoteMark, false);
  route(event, nullptr);
}

void DistributionConnector::send_ping(model::HostId peer) {
  sim::NetMessage message;
  message.from = host_;
  message.to = peer;
  message.channel = kPingChannel;
  message.size_kb = 0.05;  // tiny probe
  network_.send(std::move(message));
}

void DistributionConnector::on_net_message(const sim::NetMessage& message) {
  if (message.channel == kPingChannel) {
    // Reflect the probe back to the sender.
    sim::NetMessage pong;
    pong.from = host_;
    pong.to = message.from;
    pong.channel = kPongChannel;
    pong.size_kb = 0.05;
    network_.send(std::move(pong));
    return;
  }
  if (message.channel == kPongChannel) {
    if (pong_handler_) pong_handler_(message.from);
    return;
  }
  if (message.channel != kEventChannel) return;

  Event event = Event::deserialize(message.payload);
  if (!architecture()) return;
  if (!event.to().empty()) {
    // post_to re-resolves at dispatch; a missing destination lands in the
    // architecture's undeliverable handler (admin buffering / re-routing).
    architecture()->post_to(event.to_id(), std::move(event));
  } else {
    deliver_locally(event, nullptr);
  }
}

}  // namespace dif::prism
