#include "prism/admin.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "util/logging.h"

namespace dif::prism {

void ComponentFactory::register_type(std::string type_name, Creator creator) {
  creators_.insert_or_assign(std::move(type_name), std::move(creator));
}

bool ComponentFactory::contains(const std::string& type_name) const {
  return creators_.count(type_name) > 0;
}

std::unique_ptr<Component> ComponentFactory::create(
    const std::string& type_name, std::string name) const {
  const auto it = creators_.find(type_name);
  if (it == creators_.end())
    throw std::out_of_range("ComponentFactory: unknown type '" + type_name +
                            "'");
  return it->second(std::move(name));
}

std::string admin_name(model::HostId host) {
  return "__admin@" + std::to_string(host);
}

AdminComponent::AdminComponent(
    model::HostId host, DistributionConnector& connector,
    ComponentFactory& factory,
    std::shared_ptr<EvtFrequencyMonitor> freq_monitor,
    NetworkReliabilityMonitor* reliability_monitor, Params params)
    : AdminComponent(admin_name(host), host, connector, factory,
                     std::move(freq_monitor), reliability_monitor, params) {}

AdminComponent::AdminComponent(
    std::string component_name, model::HostId host,
    DistributionConnector& connector, ComponentFactory& factory,
    std::shared_ptr<EvtFrequencyMonitor> freq_monitor,
    NetworkReliabilityMonitor* reliability_monitor, Params params)
    : Component(std::move(component_name)),
      host_(host),
      connector_(connector),
      factory_(factory),
      freq_monitor_(std::move(freq_monitor)),
      reliability_monitor_(reliability_monitor),
      params_(params) {}

void AdminComponent::on_attached() {
  architecture()->set_undeliverable_handler(
      [this](Event&& event) { on_undeliverable(std::move(event)); });
}

void AdminComponent::send_to_deployer(Event event) {
  event.set_to(deployer_name());
  send(std::move(event));
}

void AdminComponent::start_reporting() {
  if (reporting_ || !architecture()) return;
  reporting_ = true;
  architecture()->scaffold().schedule(params_.report_interval_ms, [this] {
    if (!reporting_) return;
    collect_and_report();
    reporting_ = false;     // restart cleanly through the public entry
    start_reporting();
  });
}

void AdminComponent::collect_and_report() {
  Event report("__monitor_report");
  report.set("host", static_cast<double>(host_));
  report.set("memory_kb", architecture()->total_memory_kb());

  // Component inventory (every report; it is tiny). Encoding: u32 count,
  // then per record: str name, f64 memory_kb.
  {
    ByteWriter list;
    list.u32(0);  // count, patched below
    std::uint32_t count = 0;
    for (const auto& brick : architecture()->components()) {
      if (is_meta_name(brick->name())) continue;  // skip meta components
      list.str(brick->name());
      list.f64(brick->memory_kb());
      ++count;
    }
    list.patch_u32(0, count);
    report.set("components", list.take());
  }

  const auto filter_for = [this](const std::string& key) -> StabilityFilter& {
    auto it = filters_.find(key);
    if (it == filters_.end())
      it = filters_
               .emplace(key, StabilityFilter(params_.stability_window,
                                             params_.stability_epsilon))
               .first;
    return it->second;
  };

  // Event frequencies, gated by per-pair stability filters. Series seen in
  // earlier windows but silent now are fed a 0 sample so that a stopped
  // interaction eventually reports a stable zero.
  if (freq_monitor_) {
    std::map<std::string, EvtFrequencyMonitor::PairFrequency> latest;
    for (const EvtFrequencyMonitor::PairFrequency& pf :
         freq_monitor_->collect())
      latest.emplace("freq:" + pf.from + "->" + pf.to, pf);
    for (auto& [key, filter] : filters_) {
      if (key.rfind("freq:", 0) == 0 && !latest.count(key)) {
        filter.add(0.0);
        if (obs_.metrics)
          obs_.metrics->counter("monitor.filter.samples").add(1);
      }
    }
    ByteWriter list;
    list.u32(0);  // count, patched below
    std::uint32_t count = 0;
    for (const auto& [key, pf] : latest) {
      const std::optional<double> stable =
          filter_for(key).add(pf.frequency);
      if (obs_.metrics) {
        obs_.metrics->counter("monitor.filter.samples").add(1);
        if (stable) obs_.metrics->counter("monitor.filter.stable").add(1);
      }
      if (!stable) continue;
      list.str(pf.from);
      list.str(pf.to);
      list.f64(*stable);
      list.f64(pf.avg_event_size_kb);
      ++count;
    }
    list.patch_u32(0, count);
    report.set("freqs", list.take());
  }

  // Link reliabilities from the pinging monitor, stability-gated likewise.
  if (reliability_monitor_) {
    ByteWriter list;
    list.u32(0);  // count, patched below
    std::uint32_t count = 0;
    for (const NetworkReliabilityMonitor::PeerReliability& pr :
         reliability_monitor_->collect()) {
      const std::optional<double> stable =
          filter_for("rel:" + std::to_string(pr.peer)).add(pr.reliability);
      if (obs_.metrics) {
        obs_.metrics->counter("monitor.filter.samples").add(1);
        if (stable) obs_.metrics->counter("monitor.filter.stable").add(1);
      }
      if (!stable) continue;
      list.u32(pr.peer);
      list.f64(*stable);
      ++count;
    }
    list.patch_u32(0, count);
    report.set("rels", list.take());
  }

  if (obs_.metrics) obs_.metrics->counter("admin.reports").add(1);
  send_to_deployer(std::move(report));
}

void AdminComponent::crash() {
  if (crashed_) return;
  crashed_ = true;
  reporting_ = false;
  filters_.clear();
  buffers_.clear();
  contested_.clear();
  reservations_.clear();
  for (auto& [component, pending] : pending_transfers_)
    crash_recovery_.push_back(std::move(pending.transfer));
  pending_transfers_.clear();
  if (obs_.metrics) obs_.metrics->counter("admin.crashes").add(1);
}

void AdminComponent::restart(bool resume_reporting) {
  if (!crashed_) return;
  crashed_ = false;
  if (obs_.metrics) obs_.metrics->counter("admin.restarts").add(1);
  std::vector<Event> recovered = std::move(crash_recovery_);
  crash_recovery_.clear();
  for (Event& transfer : recovered) {
    const std::string* component = transfer.get_string("component");
    if (!component || architecture()->find_component(intern(*component)))
      continue;
    if (obs_.metrics)
      obs_.metrics->counter("admin.recovered_transfers").add(1);
    transfer.set_to(name());
    transfer.set("restored", true);
    handle_component_transfer(transfer);
  }
  // Re-registration: peers and the deployer may hold arbitrarily stale
  // views of this host after the outage (and it may hold stale views of
  // them); broadcasting the local inventory resynchronizes the location
  // tables the redeployment protocol routes by.
  for (const auto& brick : architecture()->components()) {
    if (is_meta_name(brick->name())) continue;
    announce_ownership(brick->name(), restored_.count(brick->name()) > 0);
  }
  if (resume_reporting) start_reporting();
}

void AdminComponent::handle(const Event& event) {
  if (crashed_) return;
  if (event.name() == "__prepare") {
    handle_prepare(event);
  } else if (event.name() == "__abort") {
    handle_abort(event);
  } else if (event.name() == "__new_config") {
    handle_new_config(event);
  } else if (event.name() == "__request_component") {
    handle_request_component(event);
  } else if (event.name() == "__component_transfer") {
    handle_component_transfer(event);
  } else if (event.name() == "__recover_component") {
    // A substitute copy of a component whose holder died, shipped by the
    // deployer's recovery round. Same shape as a __component_transfer with
    // no origin to ack: attach, record custody, announce, __migration_ack.
    handle_component_transfer(event);
  } else if (event.name() == "__location_update") {
    handle_location_update(event);
  } else if (event.name() == "__transfer_ack") {
    if (const std::string* component = event.get_string("component"))
      pending_transfers_.erase(*component);
  }
}

void AdminComponent::handle_prepare(const Event& event) {
  // Prepare phase of a transactional redeployment: vote on whether this
  // host can take its inbound components, and reserve capacity for them so
  // concurrent arrivals cannot oversubscribe the host between the vote and
  // the transfers. Idempotent: a retransmitted __prepare recomputes the
  // same vote and re-acks (the first ack may have been lost).
  const std::optional<double> epoch = event.get_double("epoch");
  const std::vector<std::uint8_t>* plan = event.get_bytes("plan");
  if (!epoch || !plan) return;
  // A new round supersedes any reservations a dead predecessor left behind.
  for (auto it = reservations_.begin(); it != reservations_.end();)
    it = it->second.epoch < *epoch ? reservations_.erase(it) : std::next(it);

  struct Inbound {
    std::string component;
    double memory_kb = 0.0;
  };
  std::vector<Inbound> inbound;
  double inbound_kb = 0.0;
  double outbound_kb = 0.0;
  ByteReader r(*plan);
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string component = r.str();
    const model::HostId target = r.u32();
    const double memory_kb = r.f64();
    const Component* local =
        architecture()->find_component(intern(component));
    if (target == host_) {
      if (!local) {
        inbound.push_back({component, memory_kb});
        inbound_kb += memory_kb;
      }
    } else if (local) {
      outbound_kb += local->memory_kb();
    }
  }

  bool ok = true;
  if (params_.memory_capacity_kb > 0.0) {
    double usage_kb = 0.0;
    for (const auto& brick : architecture()->components())
      if (!is_meta_name(brick->name())) usage_kb += brick->memory_kb();
    ok = usage_kb - outbound_kb + inbound_kb <= params_.memory_capacity_kb;
    if (!ok)
      util::log_warn("prism.admin", "host ", host_, " vetoes epoch ",
                     static_cast<std::uint64_t>(*epoch), ": ",
                     usage_kb - outbound_kb + inbound_kb,
                     " KB would exceed capacity ", params_.memory_capacity_kb,
                     " KB");
  }
  if (ok) {
    for (const Inbound& in : inbound) {
      reservations_[in.component] = {*epoch, in.memory_kb};
      // TTL guard: a round that dies between prepare and transfer (master
      // crash, lost __abort) must not pin this capacity forever.
      if (architecture()) {
        const double reserved_epoch = *epoch;
        architecture()->scaffold().schedule(
            params_.reservation_ttl_ms,
            [this, component = in.component, reserved_epoch] {
              const auto it = reservations_.find(component);
              if (it != reservations_.end() &&
                  it->second.epoch == reserved_epoch)
                reservations_.erase(it);
            });
      }
    }
  }
  if (obs_.metrics) obs_.metrics->counter("admin.prepare_votes").add(1);
  Event ack("__prepare_ack");
  ack.set("host", static_cast<double>(host_));
  ack.set("epoch", *epoch);
  ack.set("ok", ok);
  send_to_deployer(std::move(ack));
}

void AdminComponent::handle_abort(const Event& event) {
  const std::optional<double> epoch = event.get_double("epoch");
  if (!epoch) return;
  for (auto it = reservations_.begin(); it != reservations_.end();)
    it = it->second.epoch == *epoch ? reservations_.erase(it) : std::next(it);
}

void AdminComponent::handle_new_config(const Event& event) {
  const std::vector<std::uint8_t>* locations = event.get_bytes("locations");
  if (locations) {
    ByteReader r(*locations);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const NameId component = intern(r.str());
      const model::HostId host = r.u32();
      connector_.set_location(component, host);
    }
  }
  const std::vector<std::uint8_t>* config = event.get_bytes("config");
  if (!config) return;
  // The deployer stamps each round's epoch on __new_config; it rides every
  // downstream protocol event so acknowledgements identify their round.
  const std::optional<double> epoch = event.get_double("epoch");
  ByteReader r(*config);
  const std::uint32_t count = r.u32();
  const bool confirm = event.get_bool("confirm").value_or(false);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string component = r.str();
    const model::HostId target = r.u32();
    if (target != host_) continue;                       // not my business
    const NameId id = intern(component);
    if (architecture()->find_component(id)) {
      // Positive confirmation: the deployer's targeted retries (and every
      // rollback compensation) ask the destination to ack a component it
      // already holds — the migration's work may have completed with every
      // acknowledgement lost, and without this the round could only time
      // out. Provisional copies don't count: their custody is undecided.
      if (confirm && epoch && !restored_.count(component)) {
        Event ack("__migration_ack");
        ack.set("component", component);
        ack.set("host", static_cast<double>(host_));
        ack.set("epoch", *epoch);
        send_to_deployer(std::move(ack));
      }
      continue;  // already here
    }
    const std::optional<model::HostId> current = connector_.location(id);
    if (!current || *current == host_) {
      // Routine during re-notification races (the component is already in
      // flight toward us, or a failed transfer bounced it home): the next
      // renotify round supplies a fresh location.
      util::log_debug("prism.admin",
                      "cannot locate component '", component,
                      "' to request");
      continue;
    }
    Event request("__request_component");
    request.set_to(admin_name(*current));
    request.set("component", component);
    request.set("requester", static_cast<double>(host_));
    if (epoch) request.set("epoch", *epoch);
    send(std::move(request));
  }
}

void AdminComponent::handle_request_component(const Event& event) {
  const std::string* component = event.get_string("component");
  const std::optional<double> requester = event.get_double("requester");
  if (!component || !requester) return;
  const NameId id = intern(*component);
  std::unique_ptr<Component> detached = architecture()->detach_component(id);
  if (!detached) return;  // already gone (e.g. duplicate request)
  const auto target = static_cast<model::HostId>(*requester);

  ByteWriter state;
  detached->serialize_state(state);

  Event transfer("__component_transfer");
  transfer.set_to(admin_name(target));
  transfer.set("component", *component);
  transfer.set("type", detached->type_name());
  transfer.set("memory_kb", detached->memory_kb());
  transfer.set("origin", static_cast<double>(host_));
  if (const std::optional<double> epoch = event.get_double("epoch"))
    transfer.set("epoch", *epoch);
  const std::uint64_t custody = custody_versions_[*component] + 1;
  custody_versions_[*component] = custody;
  transfer.set("custody", static_cast<double>(custody));
  transfer.set("state", state.take());
  // Shipping ends our custody: a stale provisional marker left behind would
  // poison later ownership arbitration on this host.
  restored_.erase(*component);
  // Point our own routing at the new host before the transfer leaves, so
  // events arriving meanwhile chase the component instead of piling up.
  connector_.set_location(id, target);
  ++components_shipped_;
  // Keep the serialized component until arrival is confirmed by a location
  // update — transfers ride lossy links.
  pending_transfers_[*component] = {transfer, target, 1};
  schedule_transfer_retry(*component);
  send(std::move(transfer));
}

void AdminComponent::schedule_transfer_retry(const std::string& component) {
  if (!architecture()) return;
  architecture()->scaffold().schedule(
      params_.transfer_retry_interval_ms, [this, component] {
        const auto it = pending_transfers_.find(component);
        if (it == pending_transfers_.end()) return;  // confirmed
        PendingTransfer& pending = it->second;
        if (pending.attempts >= params_.transfer_max_attempts) {
          // Give up: reconstitute the component locally so it is not lost.
          // The copy is provisional — if the transfer actually arrived and
          // only the confirmations were lost, the ownership-resolution
          // protocol below destroys this copy again.
          util::log_warn("prism.admin", "transfer of '", component,
                         "' failed after ", pending.attempts,
                         " attempts; restoring locally (provisional)");
          Event restore = pending.transfer;
          pending_transfers_.erase(it);
          restore.set_to(name());
          restore.set("restored", true);
          handle_component_transfer(restore);
          return;
        }
        ++pending.attempts;
        send(Event(pending.transfer));
        schedule_transfer_retry(component);
      });
}

void AdminComponent::handle_component_transfer(const Event& event) {
  const std::string* component = event.get_string("component");
  const std::string* type = event.get_string("type");
  const std::vector<std::uint8_t>* state = event.get_bytes("state");
  if (!component || !type) return;
  const NameId id = intern(*component);
  const bool provisional = event.get_bool("restored").value_or(false);
  const std::optional<double> epoch = event.get_double("epoch");
  const auto ack_origin = [&] {
    if (provisional) return;  // self-restore: nobody to ack
    if (const std::optional<double> origin = event.get_double("origin")) {
      Event ack("__transfer_ack");
      ack.set_to(admin_name(static_cast<model::HostId>(*origin)));
      ack.set("component", *component);
      send(std::move(ack));
    }
  };
  if (architecture()->find_component(id)) {
    // Duplicate transfer (a retransmission raced the original): re-ack so
    // the sender stops retrying, and drop the duplicate. A genuine arrival
    // also upgrades a provisional copy to authoritative.
    if (!provisional && restored_.erase(*component) > 0)
      announce_ownership(*component, /*restored=*/false, epoch);
    ack_origin();
    return;
  }
  if (!provisional) {
    const std::uint64_t custody = static_cast<std::uint64_t>(
        event.get_double("custody").value_or(0.0));
    const auto known = custody_versions_.find(*component);
    if (known != custody_versions_.end() && custody <= known->second) {
      // A stale retransmission of a saga whose custody already moved
      // through (or out of) this host: the component lives on further down
      // the chain. Re-ack so the sender releases its retained copy, but do
      // NOT attach — that would resurrect an old copy of a component that
      // exists elsewhere.
      ack_origin();
      return;
    }
  }
  if (!factory_.contains(*type)) {
    util::log_error("prism.admin", "no factory for component type '", *type,
                    "'");
    return;
  }
  std::unique_ptr<Component> migrant = factory_.create(*type, *component);
  if (state && !state->empty()) {
    ByteReader r(*state);
    migrant->restore_state(r);
  }
  Component& attached = architecture()->add_component(std::move(migrant));
  architecture()->weld(attached, connector_);
  connector_.set_location(id, host_);
  if (const std::optional<double> custody = event.get_double("custody"))
    custody_versions_[*component] = static_cast<std::uint64_t>(*custody);
  reservations_.erase(*component);  // the reserved capacity is now used
  ++components_received_;
  ack_origin();

  if (provisional) {
    restored_.insert(*component);
    // Claim provisionally, repeatedly: should the real owner exist, its
    // authoritative counter-claim tells this copy to stand down. Reclaims
    // continue (with backoff) until the copy is either confirmed sole or
    // destroyed — a partition must not leave the conflict unresolved.
    announce_ownership(*component, /*restored=*/true);
    schedule_restored_reclaims(*component,
                               params_.transfer_retry_interval_ms);
  } else {
    restored_.erase(*component);
    announce_ownership(*component, /*restored=*/false, epoch);
    Event ack("__migration_ack");
    ack.set("component", *component);
    ack.set("host", static_cast<double>(host_));
    if (epoch) ack.set("epoch", *epoch);
    send_to_deployer(std::move(ack));
  }

  flush_buffer(*component);
}

void AdminComponent::announce_ownership(const std::string& component,
                                        bool restored,
                                        std::optional<double> epoch) {
  Event update("__location_update");
  update.set("component", component);
  update.set("host", static_cast<double>(host_));
  update.set("restored", restored);
  // Carry the custody version so receivers can tell a fresh claim ("your
  // transfer arrived — I hold saga N") from a stale backed-off re-assert
  // left over from an earlier placement of the same component.
  const auto custody = custody_versions_.find(component);
  if (custody != custody_versions_.end())
    update.set("custody", static_cast<double>(custody->second));
  if (epoch) update.set("epoch", *epoch);
  send(Event(update));  // broadcast to peers (deployer rebroadcasts)
  // The flood rides each direct link exactly once, so a peer behind a dead
  // or degraded link would never hear it — and ownership conflicts cluster
  // exactly when links are bad. Every other fleet member therefore also
  // gets a directed copy that rides the location-table/next-hop routing,
  // which can detour around a dead direct link.
  for (const model::HostId h : params_.fleet) {
    if (h == host_) continue;
    Event directed(update);
    directed.set_to(admin_name(h));
    send(std::move(directed));
  }
}

void AdminComponent::schedule_restored_reclaims(const std::string& component,
                                                double delay_ms) {
  if (!architecture()) return;
  architecture()->scaffold().schedule(
      delay_ms, [this, component, delay_ms] {
        if (!restored_.count(component)) return;        // resolved
        if (!architecture()->find_component(intern(component))) return;
        announce_ownership(component, /*restored=*/true);
        // Exponential backoff, capped: cheap insurance forever.
        schedule_restored_reclaims(component,
                                   std::min(delay_ms * 2.0, 30'000.0));
      });
}

void AdminComponent::schedule_contested_reasserts(const std::string& component,
                                                  double delay_ms) {
  if (!architecture()) return;
  architecture()->scaffold().schedule(delay_ms, [this, component, delay_ms] {
    const auto it = contested_.find(component);
    if (it == contested_.end()) return;  // conflict re-armed elsewhere or gone
    if (crashed_ || !architecture()->find_component(intern(component)) ||
        --it->second <= 0) {
      contested_.erase(it);
      return;
    }
    announce_ownership(component, restored_.count(component) > 0);
    schedule_contested_reasserts(component,
                                 std::min(delay_ms * 2.0, 30'000.0));
  });
}

void AdminComponent::handle_location_update(const Event& event) {
  const std::string* component = event.get_string("component");
  const std::optional<double> host = event.get_double("host");
  if (!component || !host) return;
  const NameId id = intern(*component);
  const auto claimant = static_cast<model::HostId>(*host);

  if (claimant != host_ && architecture()->find_component(id)) {
    // Someone else claims a component we hold: resolve ownership.
    const bool claim_restored = event.get_bool("restored").value_or(false);
    const bool mine_restored = restored_.count(*component) > 0;
    const std::uint64_t claim_custody = static_cast<std::uint64_t>(
        event.get_double("custody").value_or(0.0));
    const auto known = custody_versions_.find(*component);
    const std::uint64_t my_custody =
        known == custody_versions_.end() ? 0 : known->second;
    if (custody_precedence_ && !claim_restored && claim_custody > my_custody) {
      // Custody precedence (anti-entropy): an authoritative claim with a
      // strictly newer custody version proves the fleet moved (or
      // re-created) the component after our copy's saga — e.g. we were
      // falsely condemned behind a partition and recovery re-placed our
      // components. A higher version implies a live copy existed at the
      // claimant when it was stamped, so shedding ours outright is safe;
      // demote-to-provisional would only spawn a doomed reclaim cycle.
      util::log_info("prism.admin", "shedding stale copy of '", *component,
                     "' (claim custody ", claim_custody, " > ours ",
                     my_custody, ") to host ", claimant);
      restored_.erase(*component);
      contested_.erase(*component);
      (void)architecture()->detach_component(id);  // destroyed
      connector_.set_location(id, claimant);
      custody_versions_[*component] = claim_custody;
      flush_buffer(*component);
    } else if (mine_restored && (!claim_restored || host_ > claimant)) {
      // A provisional copy yields to an authoritative claim (and, between
      // two provisional copies, the higher host id yields — both sides
      // apply the same deterministic rule).
      util::log_info("prism.admin", "yielding provisional copy of '",
                     *component, "' to host ", claimant);
      restored_.erase(*component);
      (void)architecture()->detach_component(id);  // destroyed
      connector_.set_location(id, claimant);
      flush_buffer(*component);
    } else if (!mine_restored && !claim_restored &&
               (!custody_precedence_ || claim_custody == my_custody) &&
               host_ > claimant) {
      // Two *authoritative* claims at the same custody version: the system
      // forked (e.g. a provisional
      // copy was shipped onward as a regular transfer while the original
      // still lived elsewhere). Destroying outright is unsafe — the claim
      // may be stale and ours the last copy — so the junior holder (the
      // higher host id, mirroring the provisional tie-break) demotes its
      // copy to provisional instead: the reclaim cycle destroys it if the
      // claimant's copy is real and keeps it if the claim was stale.
      util::log_info("prism.admin", "demoting forked copy of '", *component,
                     "' to provisional (authoritative claim from host ",
                     claimant, ")");
      restored_.insert(*component);
      contested_.erase(*component);
      announce_ownership(*component, /*restored=*/true);
      schedule_restored_reclaims(*component,
                                 params_.transfer_retry_interval_ms);
    } else {
      // We are authoritative (or the senior provisional holder): re-assert
      // so the other copy stands down — and keep re-asserting on a backoff
      // timer, since this one response may die in the same fault window
      // that spawned the conflict.
      announce_ownership(*component, mine_restored);
      if (!contested_.count(*component)) {
        contested_[*component] = kMaxContestedReasserts;
        schedule_contested_reasserts(*component,
                                     params_.transfer_retry_interval_ms);
      }
    }
    pending_transfers_.erase(*component);
    return;
  }

  connector_.set_location(id, claimant);
  // Arrival confirmation for a transfer we shipped — but only when the
  // claim's custody version has reached the saga we sent. A stale claim
  // (even one naming our transfer's target, e.g. a backed-off ownership
  // re-assert from a previous placement of the same component) carries an
  // older custody version and must not cancel the retained copy and its
  // retry schedule while the real transfer is still lost on the wire.
  const auto pending = pending_transfers_.find(*component);
  if (pending != pending_transfers_.end()) {
    const double shipped =
        pending->second.transfer.get_double("custody").value_or(0.0);
    if (event.get_double("custody").value_or(0.0) >= shipped)
      pending_transfers_.erase(pending);
  }
  flush_buffer(*component);
}

void AdminComponent::on_undeliverable(Event event) {
  if (crashed_) return;  // a dead process buffers nothing
  if (event.to().empty() || event.to() == name()) return;
  const std::optional<model::HostId> where =
      connector_.location(event.to_id());
  if (where && *where != host_) {
    connector_.resend(std::move(event));  // chase it to its new host
    return;
  }
  std::deque<Event>& buffer = buffers_[event.to()];
  if (buffer.size() >= kMaxBufferedPerComponent) buffer.pop_front();
  buffer.push_back(std::move(event));
}

void AdminComponent::flush_buffer(const std::string& component) {
  const auto it = buffers_.find(component);
  if (it == buffers_.end()) return;
  std::deque<Event> drained = std::move(it->second);
  buffers_.erase(it);
  for (Event& event : drained) connector_.resend(std::move(event));
}

std::size_t AdminComponent::buffered_events() const {
  std::size_t total = 0;
  for (const auto& [component, buffer] : buffers_) total += buffer.size();
  return total;
}

}  // namespace dif::prism
