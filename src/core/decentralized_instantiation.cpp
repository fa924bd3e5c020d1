#include "core/decentralized_instantiation.h"

#include <numeric>

#include "desi/xadl.h"
#include "model/interaction_term.h"
#include "util/rng.h"

namespace dif::core {

using model::TermKind;

std::string model_sync_name(model::HostId host) {
  return "__modelsync@" + std::to_string(host);
}

namespace {

/// Per-host endpoint receiving __model_sync gossip; hands the payload to
/// the instantiation, which owns the local models.
class ModelSyncComponent final : public prism::Component {
 public:
  using Handler = std::function<void(const prism::Event&)>;
  ModelSyncComponent(model::HostId host, Handler handler)
      : prism::Component(model_sync_name(host)),
        handler_(std::move(handler)) {}
  void handle(const prism::Event& event) override {
    if (event.name() == "__model_sync") handler_(event);
  }
  [[nodiscard]] std::string type_name() const override {
    return "__modelsync";
  }

 private:
  Handler handler_;
};

}  // namespace

DecentralizedInstantiation::DecentralizedInstantiation(
    desi::SystemData& design, Config config)
    : design_(design), config_(config) {
  config_.base.create_deployer = false;
  config_.base.enable_admin_reporting = false;
  config_.base.enable_monitoring = true;
  substrate_ =
      std::make_unique<CentralizedInstantiation>(design_, config_.base);

  // Decentralized Model: each host starts from the design-time description
  // (distributed as User Input / xADL) and refines it with local
  // observations only.
  const util::json::Value description = desi::XadlLite::to_json(design_);
  const std::size_t k = design_.model().host_count();
  for (std::size_t h = 0; h < k; ++h)
    local_models_.push_back(desi::XadlLite::from_json(description));

  // Model-sync endpoints (gossip receivers), one per host.
  for (std::size_t h = 0; h < k; ++h) {
    const auto host = static_cast<model::HostId>(h);
    auto sync = std::make_unique<ModelSyncComponent>(
        host,
        [this, host](const prism::Event& event) { apply_sync(host, event); });
    prism::Component& attached =
        substrate_->architecture(host).add_component(std::move(sync));
    substrate_->architecture(host).weld(attached,
                                        substrate_->connector(host));
    sync_components_.push_back(&attached);
  }
  for (std::size_t g = 0; g < k; ++g) {
    const auto host = static_cast<model::HostId>(g);
    const prism::NameId sync = prism::intern(model_sync_name(host));
    for (std::size_t h = 0; h < k; ++h)
      substrate_->connector(static_cast<model::HostId>(h))
          .set_location(sync, host);
  }
}

DecentralizedInstantiation::~DecentralizedInstantiation() = default;

void DecentralizedInstantiation::start() { substrate_->start(); }

void DecentralizedInstantiation::refresh_local_models() {
  const std::size_t k = design_.model().host_count();
  for (std::size_t h = 0; h < k; ++h) {
    const auto host = static_cast<model::HostId>(h);
    desi::SystemData& local = *local_models_[h];
    model::DeploymentModel& lm = local.model();

    if (prism::EvtFrequencyMonitor* freq = substrate_->freq_monitor(host)) {
      for (const prism::EvtFrequencyMonitor::PairFrequency& pf :
           freq->collect()) {
        // Meta components are not part of the model.
        const std::optional<model::ComponentId> a = lm.find_component(pf.from);
        const std::optional<model::ComponentId> b = lm.find_component(pf.to);
        if (!a || !b) continue;
        model::LogicalLink link = lm.logical_link(*a, *b);
        link.frequency = pf.frequency;
        if (pf.avg_event_size_kb > 0.0)
          link.avg_event_size = pf.avg_event_size_kb;
        lm.set_logical_link(*a, *b, std::move(link));
      }
    }
    if (prism::NetworkReliabilityMonitor* rel =
            substrate_->reliability_monitor(host)) {
      for (const prism::NetworkReliabilityMonitor::PeerReliability& pr :
           rel->collect()) {
        if (pr.peer >= k || !lm.connected(host, pr.peer)) continue;
        lm.set_link_reliability(host, pr.peer, pr.reliability);
      }
    }
  }
}

std::size_t DecentralizedInstantiation::gossip_sync() {
  const std::size_t k = design_.model().host_count();
  std::size_t sent = 0;
  for (std::size_t h = 0; h < k; ++h) {
    const auto origin = static_cast<model::HostId>(h);
    const desi::SystemData& local = *local_models_[origin];
    const model::DeploymentModel& lm = local.model();

    // Origin-owned measurements: reliabilities of adjacent links...
    prism::ByteWriter rels;
    rels.u32(0);  // count, patched below
    std::uint32_t rel_count = 0;
    for (const model::HostId peer : lm.physical_neighbors(origin)) {
      if (!lm.connected(origin, peer)) continue;
      rels.u32(peer);
      rels.f64(lm.physical_link(origin, peer).reliability);
      ++rel_count;
    }
    rels.patch_u32(0, rel_count);

    // ...and the interaction frequencies its own components observed.
    prism::Architecture& arch = substrate_->architecture(origin);
    prism::ByteWriter freqs;
    freqs.u32(0);  // count, patched below
    std::uint32_t freq_count = 0;
    for (const model::Interaction& ix : lm.interactions()) {
      const bool owns_endpoint =
          arch.find_component(substrate_->name_id(ix.a)) ||
          arch.find_component(substrate_->name_id(ix.b));
      if (!owns_endpoint) continue;
      freqs.str(lm.component(ix.a).name);
      freqs.str(lm.component(ix.b).name);
      freqs.f64(ix.frequency);
      freqs.f64(ix.avg_event_size);
      ++freq_count;
    }
    freqs.patch_u32(0, freq_count);

    const std::vector<std::uint8_t> rels_blob = rels.take();
    const std::vector<std::uint8_t> freqs_blob = freqs.take();
    for (const model::HostId peer :
         substrate_->connector(origin).peers()) {
      prism::Event sync("__model_sync");
      sync.set_to(model_sync_name(peer));
      sync.set("origin", static_cast<double>(origin));
      sync.set("rels", rels_blob);
      sync.set("freqs", freqs_blob);
      sync_components_[origin]->send(std::move(sync));
      ++sent;
    }
  }
  return sent;
}

void DecentralizedInstantiation::apply_sync(model::HostId receiver,
                                            const prism::Event& event) {
  const std::optional<double> origin_raw = event.get_double("origin");
  if (!origin_raw) return;
  const auto origin = static_cast<model::HostId>(*origin_raw);
  desi::SystemData& local = *local_models_[receiver];
  model::DeploymentModel& lm = local.model();

  if (const auto* blob = event.get_bytes("rels")) {
    prism::ByteReader r(*blob);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const model::HostId peer = r.u32();
      const double reliability = r.f64();
      // Awareness: only merge data about host pairs the receiver knows —
      // i.e. links whose endpoints the receiver's model is connected to.
      if (peer >= lm.host_count() || !lm.connected(origin, peer)) continue;
      const bool aware_of_origin =
          origin == receiver || lm.connected(receiver, origin);
      const bool aware_of_peer =
          peer == receiver || lm.connected(receiver, peer);
      if (!aware_of_origin || !aware_of_peer) continue;
      lm.set_link_reliability(origin, peer, reliability);
    }
  }
  if (const auto* blob = event.get_bytes("freqs")) {
    prism::ByteReader r(*blob);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string a = r.str();
      const std::string b = r.str();
      const double frequency = r.f64();
      const double size = r.f64();
      const std::optional<model::ComponentId> ca = lm.find_component(a);
      const std::optional<model::ComponentId> cb = lm.find_component(b);
      if (!ca || !cb) continue;
      model::LogicalLink link = lm.logical_link(*ca, *cb);
      link.frequency = frequency;
      if (size > 0.0) link.avg_event_size = size;
      lm.set_logical_link(*ca, *cb, std::move(link));
    }
  }
}

bool DecentralizedInstantiation::fits(model::HostId host,
                                      model::ComponentId component) const {
  const model::DeploymentModel& m = design_.model();
  const model::ConstraintSet& constraints = design_.constraints();
  if (!constraints.host_allowed(component, host)) return false;

  // The candidate host knows its own load exactly (ground truth).
  prism::Architecture& arch =
      const_cast<CentralizedInstantiation&>(*substrate_).architecture(host);
  double used = 0.0;
  for (const auto& brick : arch.components())
    if (!prism::is_meta_name(brick->name())) used += brick->memory_kb();
  if (used + m.component(component).memory_size >
      m.host(host).memory_capacity)
    return false;

  // Collocation constraints against components actually on the host.
  for (const auto& [a, b] : constraints.anti_colocation_pairs()) {
    const model::ComponentId other =
        a == component ? b : (b == component ? a : component);
    if (other == component) continue;
    if (arch.find_component(substrate_->name_id(other))) return false;
  }
  for (const auto& [a, b] : constraints.colocation_pairs()) {
    if (a != component && b != component) continue;
    const model::ComponentId partner = a == component ? b : a;
    // Moving one half of a must-pair is only legal onto the partner's host.
    if (!arch.find_component(substrate_->name_id(partner))) return false;
  }
  return true;
}

double DecentralizedInstantiation::bid(model::HostId bidder,
                                       model::ComponentId component,
                                       model::HostId believed_current) const {
  (void)believed_current;
  const desi::SystemData& local = *local_models_[bidder];
  const model::DeploymentModel& lm = local.model();
  const prism::DistributionConnector& connector =
      const_cast<CentralizedInstantiation&>(*substrate_).connector(bidder);

  double utility = 0.0;
  for (const model::Interaction& ix : lm.interactions()) {
    if (ix.a != component && ix.b != component) continue;
    const model::ComponentId partner = ix.a == component ? ix.b : ix.a;
    const std::optional<model::HostId> partner_host =
        connector.location(substrate_->name_id(partner));
    if (!partner_host) continue;  // unknown to this host: no information
    // Awareness: a host only reasons about hosts it is connected to.
    if (*partner_host != bidder && !lm.connected(bidder, *partner_host))
      continue;
    utility += model::interaction_term<TermKind::kAvailability>(
        lm, ix.frequency, ix.avg_event_size, bidder, *partner_host);
  }
  return utility;
}

double DecentralizedInstantiation::voter_delta(model::HostId voter,
                                               model::ComponentId component,
                                               model::HostId from,
                                               model::HostId to) const {
  const desi::SystemData& local = *local_models_[voter];
  const model::DeploymentModel& lm = local.model();
  // The voter's own components, from ground truth (it knows its own host).
  prism::Architecture& arch =
      const_cast<CentralizedInstantiation&>(*substrate_).architecture(voter);
  double delta = 0.0;
  for (const model::Interaction& ix : lm.interactions()) {
    if (ix.a != component && ix.b != component) continue;
    const model::ComponentId partner = ix.a == component ? ix.b : ix.a;
    if (!arch.find_component(substrate_->name_id(partner))) continue;
    const double before = model::interaction_term<TermKind::kAvailability>(
        lm, ix.frequency, ix.avg_event_size, from, voter);
    const double after = model::interaction_term<TermKind::kAvailability>(
        lm, ix.frequency, ix.avg_event_size, to, voter);
    delta += after - before;
  }
  return delta;
}

bool DecentralizedInstantiation::ratify(
    model::HostId auctioneer, const std::vector<model::HostId>& participants,
    model::ComponentId component, model::HostId from, model::HostId to) {
  ++votes_held_;
  std::size_t ayes = 0, voters = 0;
  const auto cast = [&](model::HostId voter) {
    ++voters;
    stats_.messages += 2;  // ballot out, vote back
    if (voter_delta(voter, component, from, to) >= -config_.vote_tolerance)
      ++ayes;
  };
  cast(auctioneer);
  for (const model::HostId participant : participants) cast(participant);
  const bool accepted = ayes * 2 > voters;
  if (!accepted) ++votes_rejected_;
  return accepted;
}

std::size_t DecentralizedInstantiation::auction_sweep(std::uint64_t seed) {
  const model::DeploymentModel& m = design_.model();
  const std::size_t k = m.host_count();
  util::Xoshiro256ss rng(seed);

  std::vector<model::HostId> order(k);
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);

  std::vector<bool> busy(k, false);
  std::size_t migrations = 0;

  for (const model::HostId auctioneer : order) {
    if (busy[auctioneer]) continue;
    prism::DistributionConnector& connector =
        substrate_->connector(auctioneer);
    const std::vector<model::HostId>& peers = connector.peers();
    if (peers.empty()) continue;

    // Snapshot: the host's own application components (ground truth).
    std::vector<model::ComponentId> local_components;
    for (const auto& brick :
         substrate_->architecture(auctioneer).components())
      if (const model::ComponentId c =
              substrate_->component_of(brick->name_id());
          c != model::kNoComponent)
        local_components.push_back(c);
    if (local_components.empty()) continue;

    bool conducted = false;
    for (const model::ComponentId component : local_components) {
      ++stats_.auctions;
      conducted = true;
      stats_.messages += peers.size();  // announcements

      const double keep =
          bid(auctioneer, component, auctioneer);
      double best = keep;
      model::HostId winner = auctioneer;
      for (const model::HostId bidder : peers) {
        ++stats_.messages;  // bid reply
        if (!fits(bidder, component)) continue;
        const double value = bid(bidder, component, auctioneer);
        if (value > best + config_.min_gain) {
          best = value;
          winner = bidder;
        }
      }
      if (winner == auctioneer) continue;

      // Decentralized Analyzer ratification: participants vote with their
      // own partial knowledge before the move is effected.
      if (config_.ratify_moves &&
          !ratify(auctioneer, peers, component, auctioneer, winner))
        continue;

      // Effect: hand the winning host's Local Effector a new configuration
      // for this component; it pulls it via the migration protocol.
      prism::Event new_config("__new_config");
      new_config.set_to(prism::admin_name(winner));
      prism::ByteWriter config;
      config.u32(1);
      config.str(m.component(component).name);
      config.u32(winner);
      new_config.set("config", config.take());
      prism::ByteWriter locations;
      locations.u32(1);
      locations.str(m.component(component).name);
      locations.u32(auctioneer);
      new_config.set("locations", locations.take());
      substrate_->architecture(winner).post_to(
          prism::intern(prism::admin_name(winner)), new_config);
      ++stats_.messages;
      ++migrations;
    }

    if (conducted) {
      busy[auctioneer] = true;
      for (const model::HostId peer : peers)
        if (peer < k) busy[peer] = true;
    }
  }

  ++stats_.rounds;
  stats_.migrations += migrations;
  return migrations;
}

}  // namespace dif::core
