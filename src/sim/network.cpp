#include "sim/network.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/assert.h"

namespace dif::sim {

SimNetwork::SimNetwork(Simulator& simulator, std::size_t host_count,
                       std::uint64_t seed)
    : sim_(simulator),
      k_(host_count),
      links_(host_count * host_count),
      link_free_(host_count * host_count, 0.0),
      link_dropped_(host_count * host_count, 0),
      link_queues_(host_count * host_count),
      host_up_(host_count, true),
      receivers_(host_count),
      rng_(seed) {
  if (host_count == 0) throw std::invalid_argument("SimNetwork: no hosts");
}

SimNetwork SimNetwork::from_model(Simulator& simulator,
                                  const model::DeploymentModel& m,
                                  std::uint64_t seed) {
  SimNetwork net(simulator, m.host_count(), seed);
  m.for_each_physical_link([&](model::HostId a, model::HostId b,
                               const model::PhysicalLink& link) {
    if (link.bandwidth > 0.0)
      net.set_link(a, b,
                   {link.reliability, link.bandwidth, link.delay_ms, false});
  });
  return net;
}

std::size_t SimNetwork::index(model::HostId a, model::HostId b) const {
  if (a >= k_ || b >= k_)
    throw std::out_of_range("SimNetwork: bad host id");
  const auto [lo, hi] = std::minmax(a, b);
  return static_cast<std::size_t>(lo) * k_ + hi;
}

void SimNetwork::set_link(model::HostId a, model::HostId b, LinkState state) {
  if (a == b) throw std::invalid_argument("SimNetwork: self link");
  links_[index(a, b)] = state;
}

const LinkState& SimNetwork::link(model::HostId a, model::HostId b) const {
  return links_[index(a, b)];
}

void SimNetwork::sever(model::HostId a, model::HostId b) {
  links_[index(a, b)].severed = true;
}

void SimNetwork::restore(model::HostId a, model::HostId b) {
  links_[index(a, b)].severed = false;
}

void SimNetwork::fail_host(model::HostId host) {
  if (host >= k_) throw std::out_of_range("SimNetwork: bad host id");
  host_up_[host] = false;
}

void SimNetwork::recover_host(model::HostId host) {
  if (host >= k_) throw std::out_of_range("SimNetwork: bad host id");
  host_up_[host] = true;
}

bool SimNetwork::host_up(model::HostId host) const {
  if (host >= k_) throw std::out_of_range("SimNetwork: bad host id");
  return host_up_[host];
}

bool SimNetwork::reachable(model::HostId a, model::HostId b) const {
  if (a >= k_ || b >= k_) throw std::out_of_range("SimNetwork: bad host id");
  if (!host_up_[a] || !host_up_[b]) return false;
  if (a == b) return true;
  const LinkState& link = links_[index(a, b)];
  return !link.severed && link.bandwidth > 0.0;
}

double SimNetwork::backlog_ms(model::HostId a, model::HostId b) const {
  if (a >= k_ || b >= k_) throw std::out_of_range("SimNetwork: bad host id");
  if (a == b) return 0.0;
  return std::max(0.0, link_free_[index(a, b)] - sim_.now());
}

void SimNetwork::reset_stats() noexcept {
  stats_ = MessageStats{};
  std::fill(link_dropped_.begin(), link_dropped_.end(), 0);
}

std::uint64_t SimNetwork::link_dropped(model::HostId a, model::HostId b) const {
  return link_dropped_[index(a, b)];
}

std::vector<LinkDrops> SimNetwork::dropped_links() const {
  std::vector<LinkDrops> result;
  for (std::size_t a = 0; a < k_; ++a)
    for (std::size_t b = a + 1; b < k_; ++b)
      if (const std::uint64_t n = link_dropped_[a * k_ + b])
        result.push_back({static_cast<model::HostId>(a),
                          static_cast<model::HostId>(b), n});
  return result;
}

void SimNetwork::set_receiver(model::HostId host, Receiver receiver) {
  if (host >= k_) throw std::out_of_range("SimNetwork: bad host id");
  receivers_[host] = std::move(receiver);
}

void SimNetwork::set_instruments(obs::Instruments instruments) {
  obs_ = instruments;
  metric_ = CachedMetrics{};
  link_queue_ms_.assign(obs_.metrics ? k_ * k_ : 0, nullptr);
  if (!obs_.metrics) return;
  obs::Registry& r = *obs_.metrics;
  metric_.sent = &r.counter("net.sent");
  metric_.delivered = &r.counter("net.delivered");
  metric_.dropped = &r.counter("net.dropped");
  metric_.unroutable = &r.counter("net.unroutable");
  metric_.fuzz_duplicated = &r.counter("net.fuzz.duplicated");
  metric_.fuzz_dropped = &r.counter("net.fuzz.dropped");
  metric_.fuzz_delayed = &r.counter("net.fuzz.delayed");
  metric_.kb_sent = &r.gauge("net.kb_sent");
  metric_.kb_delivered = &r.gauge("net.kb_delivered");
  metric_.queue_ms = &r.histogram("net.queue_ms");
}

obs::Histogram* SimNetwork::link_queue_histogram(std::size_t li,
                                                model::HostId from,
                                                model::HostId to) {
  if (!obs_.metrics) return nullptr;
  if (!link_queue_ms_[li]) {
    const auto [lo, hi] = std::minmax(from, to);
    link_queue_ms_[li] =
        &obs_.metrics->histogram("net.link." + std::to_string(lo) + "-" +
                                 std::to_string(hi) + ".queue_ms");
  }
  return link_queue_ms_[li];
}

bool SimNetwork::send(NetMessage msg) {
  ++stats_.sent;
  stats_.kb_sent += msg.size_kb;
  if (metric_.sent) {
    metric_.sent->add(1);
    metric_.kb_sent->add(msg.size_kb);
  }

  if (msg.from >= k_ || msg.to >= k_)
    throw std::out_of_range("SimNetwork: bad host id");
  if (!host_up_[msg.from] || !host_up_[msg.to]) {
    ++stats_.unroutable;
    if (metric_.unroutable) metric_.unroutable->add(1);
    return false;
  }
  sync_clears();
  if (msg.from == msg.to) {
    schedule_arrival(std::move(msg), sim_.now());
    return true;
  }

  const std::size_t li = index(msg.from, msg.to);
  const LinkState& link = links_[li];
  if (link.severed || link.bandwidth <= 0.0) {
    ++stats_.unroutable;
    if (metric_.unroutable) metric_.unroutable->add(1);
    return false;
  }
  double fuzz_delay_ms = 0.0;
  if (fuzz_hook_ && !fuzz_replay_) {
    if (const std::optional<FuzzDecision> fuzz = fuzz_hook_(msg)) {
      // Duplicates are scheduled before a drop verdict is applied: "drop
      // the original, deliver a copy later" is exactly a reorder.
      for (int copy = 1; copy <= fuzz->duplicates; ++copy) {
        sim_.schedule_after(
            fuzz->duplicate_gap_ms * copy, [this, dup = msg]() mutable {
              fuzz_replay_ = true;
              send(std::move(dup));
              fuzz_replay_ = false;
            });
        if (metric_.fuzz_duplicated) metric_.fuzz_duplicated->add(1);
      }
      if (fuzz->drop) {
        ++stats_.dropped;
        ++link_dropped_[li];
        if (metric_.dropped) {
          metric_.dropped->add(1);
          metric_.fuzz_dropped->add(1);
        }
        return true;
      }
      fuzz_delay_ms = std::max(fuzz->delay_ms, 0.0);
      if (fuzz_delay_ms > 0.0 && metric_.fuzz_delayed)
        metric_.fuzz_delayed->add(1);
    }
  }
  if (!rng_.chance(link.reliability)) {
    ++stats_.dropped;
    ++link_dropped_[li];
    if (metric_.dropped) metric_.dropped->add(1);
    // The sender does not learn about the loss (fire-and-forget events);
    // reliability protocols are layered above when needed.
    return true;
  }
  // Serialize transfers on the link: a transfer starts when the link frees
  // up, takes size/bandwidth, and the message additionally rides the
  // propagation delay.
  const TimePoint start = std::max(sim_.now(), link_free_[li]);
  const double transfer_ms =
      1000.0 * std::max(msg.size_kb, 0.0) / link.bandwidth;
  link_free_[li] = start + transfer_ms;
  const double queue_ms = start - sim_.now();
  if (metric_.queue_ms) {
    metric_.queue_ms->observe(queue_ms);
    link_queue_histogram(li, msg.from, msg.to)->observe(queue_ms);
  }
  const double total_delay =
      queue_ms + transfer_ms + link.delay_ms + fuzz_delay_ms;
  enqueue(li, std::move(msg), sim_.now() + std::max(total_delay, 0.0));
  return true;
}

void SimNetwork::sync_clears() {
  if (sim_.clears() == clears_seen_) return;
  clears_seen_ = sim_.clears();
  for (LinkQueue& q : link_queues_) q = LinkQueue{};
  in_flight_ = 0;
}

void SimNetwork::LinkQueue::push(InFlight item) {
  if (size == ring.size()) {
    std::vector<InFlight> grown(std::max<std::size_t>(4, 2 * ring.size()));
    for (std::size_t i = 0; i < size; ++i) grown[i] = std::move(at(i));
    ring = std::move(grown);
    head = 0;
  }
  DIF_ASSERT(size == 0 || item.at > at(size - 1).at,
             "SimNetwork: link queue arrival times must strictly increase");
  at(size) = std::move(item);
  ++size;
}

NetMessage SimNetwork::LinkQueue::pop() {
  NetMessage m = std::move(ring[head].msg);
  head = (head + 1) & (ring.size() - 1);
  --size;
  return m;
}

void SimNetwork::schedule_arrival(NetMessage m, TimePoint at) {
  ++in_flight_;
  sim_.schedule_at(at, [this, m = std::move(m)] {
    --in_flight_;
    arrive(m);
  });
}

void SimNetwork::enqueue(std::size_t li, NetMessage m, TimePoint at) {
  LinkQueue& q = link_queues_[li];
  if (q.size > 0 && at <= q.at(q.size - 1).at) {
    schedule_arrival(std::move(m), at);
    return;
  }
  ++in_flight_;
  q.push({at, sim_.reserve_seq(), std::move(m)});
  if (q.size == 1) schedule_head(li);
}

void SimNetwork::schedule_head(std::size_t li) {
  LinkQueue& q = link_queues_[li];
  const InFlight& head = q.at(0);
  sim_.schedule_at(head.at, head.seq, [this, li] { arrive_head(li); });
}

void SimNetwork::arrive_head(std::size_t li) {
  LinkQueue& q = link_queues_[li];
  DIF_ASSERT(q.size > 0 && q.at(0).seq == sim_.firing_seq(),
             "SimNetwork: link queue head fired under a foreign seq");
  const NetMessage m = q.pop();
  --in_flight_;
  // The next head is scheduled before the receiver runs, so a clear() from
  // inside the receiver drops it like every other pending event.
  if (q.size > 0) schedule_head(li);
  arrive(m);
}

void SimNetwork::arrive(const NetMessage& m) {
  // A host that crashed while the message was in flight receives nothing.
  if (!host_up_[m.to]) {
    ++stats_.dropped;
    if (m.from != m.to) ++link_dropped_[index(m.from, m.to)];
    if (metric_.dropped) metric_.dropped->add(1);
    return;
  }
  ++stats_.delivered;
  stats_.kb_delivered += m.size_kb;
  if (metric_.delivered) {
    metric_.delivered->add(1);
    metric_.kb_delivered->add(m.size_kb);
  }
  if (receivers_[m.to]) receivers_[m.to](m);
}

}  // namespace dif::sim
