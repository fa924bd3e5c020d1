#include "prism/monitors.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace dif::prism {

StabilityFilter::StabilityFilter(std::size_t window, double epsilon)
    : window_(window), epsilon_(epsilon) {}

std::optional<double> StabilityFilter::add(double sample) {
  window_.add(sample);
  if (!stable()) return std::nullopt;
  return window_.mean();
}

bool StabilityFilter::stable() const {
  return window_.full() && window_.spread() < epsilon_;
}

EvtFrequencyMonitor::EvtFrequencyMonitor(const IScaffold& scaffold,
                                         std::size_t retain_windows)
    : scaffold_(scaffold),
      retain_windows_(retain_windows),
      window_start_ms_(scaffold.now_ms()) {}

void EvtFrequencyMonitor::set_instruments(obs::Instruments instruments) {
  obs::Registry* r = instruments.metrics;
  collections_ = r ? &r->counter("monitor.freq.collections") : nullptr;
  zero_pairs_ = r ? &r->counter("monitor.freq.zero_pairs") : nullptr;
  pairs_ = r ? &r->gauge("monitor.freq.pairs") : nullptr;
}

void EvtFrequencyMonitor::on_event_sent(const Brick& brick,
                                        const Event& event) {
  // Directed events are counted at the sender: delivery may fail on a lossy
  // link, and the interaction frequency the model wants is how often the
  // components *interact*, not how often the network cooperates (counting
  // on receipt would systematically under-report exactly the links the
  // redeployment algorithms most need to fix).
  if (is_meta_name(event.name())) return;  // middleware control event
  if (event.to_id() == kEmptyName) return;  // broadcast: see below
  count(brick.name_id(), event.to_id(), event);
}

void EvtFrequencyMonitor::on_event_received(const Brick& brick,
                                            const Event& event) {
  if (is_meta_name(event.name())) return;  // middleware control event
  if (!event.to().empty()) return;  // directed: already counted at sender
  if (event.from().empty()) return;
  // Broadcast events have no single destination at send time; count each
  // delivery.
  count(intern(event.from()), brick.name_id(), event);
}

void EvtFrequencyMonitor::count(NameId from, NameId to, const Event& event) {
  ++observed_;
  Counter& counter = counts_[PairKey{from} << 32 | to];
  ++counter.count;
  counter.total_kb += event.size_kb();
}

namespace {
const std::string& from_name(std::uint64_t key) {
  return name_of(static_cast<NameId>(key >> 32));
}
const std::string& to_name(std::uint64_t key) {
  return name_of(static_cast<NameId>(key));
}
}  // namespace

bool EvtFrequencyMonitor::ByNames::operator()(PairKey a, PairKey b) const {
  return std::tie(from_name(a), to_name(a)) <
         std::tie(from_name(b), to_name(b));
}

std::vector<EvtFrequencyMonitor::PairFrequency>
EvtFrequencyMonitor::collect() {
  const double now = scaffold_.now_ms();
  const double window_s = std::max((now - window_start_ms_) / 1000.0, 1e-9);
  // Reported in (from, to) name order, whatever order the ids hash in.
  std::vector<std::pair<PairKey, Counter>> active(counts_.begin(),
                                                  counts_.end());
  std::sort(active.begin(), active.end(),
            [](const auto& a, const auto& b) {
              return ByNames{}(a.first, b.first);
            });
  std::vector<PairFrequency> out;
  out.reserve(active.size());
  for (const auto& [pair, counter] : active) {
    out.push_back({from_name(pair), to_name(pair),
                   static_cast<double>(counter.count) / window_s,
                   counter.count ? counter.total_kb /
                                       static_cast<double>(counter.count)
                                 : 0.0});
  }
  // Pairs from recent windows with no events this window: report an
  // explicit zero so the model sees the interaction decaying to nothing
  // instead of freezing at its last nonzero frequency. Retired after
  // retain_windows_ consecutive quiet windows.
  std::size_t zero_pairs = 0;
  for (auto it = quiet_windows_.begin(); it != quiet_windows_.end();) {
    if (counts_.count(it->first) != 0) {
      it->second = 0;
      ++it;
      continue;
    }
    if (++it->second > retain_windows_) {
      it = quiet_windows_.erase(it);
      continue;
    }
    out.push_back({from_name(it->first), to_name(it->first), 0.0, 0.0});
    ++zero_pairs;
    ++it;
  }
  for (const auto& [pair, counter] : active) quiet_windows_[pair] = 0;
  if (collections_) {
    collections_->add(1);
    zero_pairs_->add(zero_pairs);
    pairs_->set(static_cast<double>(out.size()));
  }
  counts_.clear();
  window_start_ms_ = now;
  return out;
}

NetworkReliabilityMonitor::NetworkReliabilityMonitor(
    DistributionConnector& connector, sim::Simulator& simulator, Params params)
    : connector_(connector), sim_(simulator), params_(params) {
  connector_.set_pong_handler(
      [this](model::HostId peer) { ++sent_received_[peer].second; });
}

void NetworkReliabilityMonitor::set_instruments(
    obs::Instruments instruments) {
  obs::Registry* r = instruments.metrics;
  pings_ = r ? &r->counter("monitor.rel.pings") : nullptr;
  collections_ = r ? &r->counter("monitor.rel.collections") : nullptr;
  peers_ = r ? &r->gauge("monitor.rel.peers") : nullptr;
}

void NetworkReliabilityMonitor::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void NetworkReliabilityMonitor::schedule_next() {
  sim_.schedule_after(params_.interval_ms, [this] {
    if (!running_) return;
    ping_round();
    schedule_next();
  });
}

void NetworkReliabilityMonitor::ping_round() {
  for (const model::HostId peer : connector_.peers()) {
    for (std::uint32_t i = 0; i < params_.pings_per_round; ++i) {
      connector_.send_ping(peer);
      ++sent_received_[peer].first;
      if (pings_) pings_->add(1);
    }
  }
}

std::vector<NetworkReliabilityMonitor::PeerReliability>
NetworkReliabilityMonitor::collect() {
  std::vector<PeerReliability> out;
  out.reserve(sent_received_.size());
  for (auto& [peer, counters] : sent_received_) {
    auto& [sent, received] = counters;
    if (sent == 0) continue;
    const double round_trip =
        std::min(1.0, static_cast<double>(received) /
                          static_cast<double>(sent));
    out.push_back({peer, std::sqrt(round_trip), sent});
    sent = 0;
    received = 0;
  }
  if (collections_) {
    collections_->add(1);
    peers_->set(static_cast<double>(out.size()));
  }
  return out;
}

}  // namespace dif::prism
