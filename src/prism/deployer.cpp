#include "prism/deployer.h"

#include <algorithm>

#include "util/logging.h"

namespace dif::prism {

DeployerComponent::DeployerComponent(
    model::HostId host, DistributionConnector& connector,
    ComponentFactory& factory,
    std::shared_ptr<EvtFrequencyMonitor> freq_monitor,
    NetworkReliabilityMonitor* reliability_monitor, Params admin_params,
    DeployerParams deployer_params)
    : AdminComponent(deployer_name(), host, connector, factory,
                     std::move(freq_monitor), reliability_monitor,
                     admin_params),
      deployer_params_(std::move(deployer_params)) {}

void DeployerComponent::crash() {
  if (!crashed() && (round_.active() || completion_)) {
    if (obs_.metrics) obs_.metrics->counter("deploy.crashed_rounds").add(1);
    if (round_.active()) {
      end_phase_span(phase_span_, false);
      close_round(TxnOutcome::kCrashed);
    } else {
      last_outcome_ = TxnOutcome::kCrashed;
      finish(false);
    }
  }
  AdminComponent::crash();
}

void DeployerComponent::handle(const Event& event) {
  if (crashed()) return;
  if (event.name() == "__monitor_report") {
    handle_monitor_report(event);
    return;
  }
  if (event.name() == "__prepare_ack") {
    handle_prepare_ack(event);
    return;
  }
  if (event.name() == "__migration_ack") {
    handle_migration_ack(event);
    return;
  }
  if (event.name() == "__location_update") {
    // Mediation: make sure location knowledge reaches hosts that are not
    // directly connected to the migration target — rebroadcast once.
    AdminComponent::handle(event);
    const std::string* component = event.get_string("component");
    const std::optional<double> host = event.get_double("host");
    if (component && host) {
      Event rebroadcast("__location_update");
      rebroadcast.set("component", *component);
      rebroadcast.set("host", *host);
      rebroadcast.set("restored",
                      event.get_bool("restored").value_or(false));
      if (const std::optional<double> epoch = event.get_double("epoch"))
        rebroadcast.set("epoch", *epoch);
      if (custody_rebroadcast_) {
        if (const std::optional<double> custody = event.get_double("custody"))
          rebroadcast.set("custody", *custody);
      }
      send(std::move(rebroadcast));
      // Track the highest custody version heard per component: recovery
      // stamps its substitute copies one above this, so a falsely-condemned
      // holder's stale copy loses the ownership tiebreak when it rejoins.
      if (const std::optional<double> custody = event.get_double("custody")) {
        auto& belief = custody_beliefs_[*component];
        belief = std::max(belief, static_cast<std::uint64_t>(*custody));
      }
      // A location update doubles as an ack: the component demonstrably
      // arrived somewhere, even if the explicit __migration_ack was lost —
      // but only when it concludes a migration of the *current* round
      // (matching epoch, not a provisional restore). A late update from an
      // abandoned round must not satisfy the new round's bookkeeping.
      const bool restored = event.get_bool("restored").value_or(false);
      if (!restored && ack_epoch_matches(event)) {
        const auto at = static_cast<model::HostId>(*host);
        if (round_.acknowledge(*component, at)) {
          if (obs_.metrics)
            obs_.metrics->counter("deploy.acks_recovered_via_location").add(1);
          util::log_debug("prism.deployer", "recovered ack for '", *component,
                          "' via location update (epoch ", epoch_,
                          "; the explicit __migration_ack was lost)");
          check_round_completion();
        }
      }
    }
    return;
  }
  AdminComponent::handle(event);
}

bool DeployerComponent::ack_epoch_matches(const Event& event) {
  const std::optional<double> epoch = event.get_double("epoch");
  if (epoch && static_cast<std::uint64_t>(*epoch) == epoch_) return true;
  if (round_.active()) {
    const std::string* component = event.get_string("component");
    if (component && round_.has_open_task(*component)) {
      ++stale_acks_ignored_;
      ++stale_acks_total_;
      if (obs_.metrics) {
        obs_.metrics->counter("deploy.stale_acks_ignored").add(1);
        obs_.metrics->counter("deploy.stale_acks_total").add(1);
      }
      util::log_debug("prism.deployer", "ignoring stale ack for '",
                      *component, "' (epoch ",
                      epoch ? static_cast<std::uint64_t>(*epoch) : 0,
                      " != ", epoch_, ")");
    }
  }
  return false;
}

void DeployerComponent::handle_monitor_report(const Event& event) {
  const std::optional<double> host = event.get_double("host");
  if (!host) return;
  // Every monitor report is a heartbeat: tap it (with the local receive
  // time) for the phi-accrual failure detector before decoding anything.
  if (heartbeat_listener_)
    heartbeat_listener_(static_cast<model::HostId>(*host),
                        architecture()->scaffold().now_ms());
  HostReport report;
  report.host = static_cast<model::HostId>(*host);
  report.memory_kb = event.get_double("memory_kb").value_or(0.0);
  // Believed per-host usage feeds the plan preflight's capacity leg.
  host_memory_kb_[report.host] = report.memory_kb;

  if (const auto* blob = event.get_bytes("components")) {
    ByteReader r(*blob);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      HostReport::ComponentInfo info;
      info.name = r.str();
      info.memory_kb = r.f64();
      // Keep the deployer's routing table fresh from the ground truth, and
      // remember component footprints for the prepare phase's plan blob.
      connector().set_location(intern(info.name), report.host);
      component_memory_kb_[info.name] = info.memory_kb;
      report.components.push_back(std::move(info));
    }
  }
  if (const auto* blob = event.get_bytes("freqs")) {
    ByteReader r(*blob);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      HostReport::InteractionInfo info;
      info.from = r.str();
      info.to = r.str();
      info.frequency = r.f64();
      info.avg_size_kb = r.f64();
      report.interactions.push_back(std::move(info));
    }
  }
  if (const auto* blob = event.get_bytes("rels")) {
    ByteReader r(*blob);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      HostReport::ReliabilityInfo info;
      info.peer = r.u32();
      info.reliability = r.f64();
      report.reliabilities.push_back(info);
    }
  }
  if (report_handler_) report_handler_(report);
}

bool DeployerComponent::effect_deployment(const TargetDeployment& target,
                                          CompletionHandler done) {
  return begin_round(target, std::move(done), nullptr);
}

bool DeployerComponent::effect_recovery(
    const TargetDeployment& target,
    const std::map<std::string, RecoveredComponent>& lost,
    CompletionHandler done) {
  return begin_round(target, std::move(done), &lost);
}

bool DeployerComponent::begin_round(
    const TargetDeployment& target, CompletionHandler done,
    const std::map<std::string, RecoveredComponent>* lost) {
  if (crashed() || round_.active()) return false;
  completion_ = std::move(done);
  migrations_requested_ = 0;
  ++epoch_;
  renotify_total_ = 0;
  prepare_attempts_ = 0;
  redeploy_start_ms_ = architecture()->scaffold().now_ms();
  if (obs_.metrics) obs_.metrics->counter("deploy.redeployments").add(1);

  recovery_payloads_.clear();
  recovery_custody_.clear();
  if (lost) {
    if (obs_.metrics) obs_.metrics->counter("deploy.recoveries").add(1);
    recovery_payloads_ = *lost;
    for (const auto& [component, payload] : *lost) {
      // The substitute payload is the footprint of record now; the dead
      // host will not be reporting corrections.
      component_memory_kb_[component] = payload.memory_kb;
      // Stamp the substitute copy one custody version above the highest
      // ever announced, so it wins the ownership tiebreak against the
      // (possibly still live, merely partitioned) original.
      const std::uint64_t next = custody_belief(component) + 1;
      custody_beliefs_[component] = next;
      recovery_custody_[component] = next;
    }
  }

  // Checkpoint the believed pre-round placement of everything that moves;
  // rollback restores exactly this map.
  std::vector<MigrationTask> plan;
  std::map<std::string, model::HostId> checkpoint;
  for (const auto& [component, host] : target) {
    const std::optional<model::HostId> current =
        connector().location(intern(component));
    if (current && *current != host) {
      MigrationTask task;
      task.component = component;
      task.from = *current;
      task.to = host;
      plan.push_back(std::move(task));
      checkpoint.emplace(component, *current);
    }
  }
  migrations_requested_ = plan.size();

  // Liveness admission: a plan shipping anything to a suspect or condemned
  // host is refused before a single __prepare — the old behaviour (any
  // host that ever reported stays placeable forever) let redeployments
  // strand components on hosts mid-failure.
  if (liveness_probe_ && !plan.empty()) {
    for (const MigrationTask& task : plan) {
      if (!liveness_probe_(task.to)) continue;
      util::log_warn("prism.deployer", "plan for epoch ", epoch_,
                     " targets unsafe host ", task.to, " with '",
                     task.component, "'; rejecting");
      ++liveness_rejected_;
      if (obs_.metrics)
        obs_.metrics->counter("deploy.liveness_rejected").add(1);
      abort_unopened_round(plan, checkpoint);
      return true;
    }
  }
  if (obs_.trace) {
    redeploy_span_ = obs_.trace->begin_span(
        redeploy_start_ms_, "deploy.redeploy",
        {{"epoch", static_cast<std::int64_t>(epoch_)},
         {"moves_requested", static_cast<std::int64_t>(plan.size())}});
  }

  if (plan.empty()) {
    // Nothing moves: trivially committed, no prepare round trip.
    RoundRecord record;
    record.epoch = epoch_;
    record.outcome = TxnOutcome::kCommitted;
    history_.push_back(std::move(record));
    last_outcome_ = TxnOutcome::kCommitted;
    finish(true);
    return true;
  }

  if (preflight_reject(plan, checkpoint)) return true;

  current_target_ = target;
  // Recovery rounds always keep what they managed to restore: rolling a
  // half-repaired fleet back to "still lost" helps nobody.
  round_.begin(epoch_, std::move(plan), std::move(checkpoint),
               deployer_params_.allow_partial || lost != nullptr);
  phase_span_ = begin_phase_span(
      "deploy.txn.prepare",
      static_cast<std::int64_t>(round_.participants().size()),
      "participants");
  send_prepare();
  schedule_prepare_retry(epoch_);
  schedule_round_deadline(epoch_);
  return true;
}

bool DeployerComponent::preflight_reject(
    const std::vector<MigrationTask>& plan,
    const std::map<std::string, model::HostId>& checkpoint) {
  check::PlanContext ctx;
  for (const model::HostId host : deployer_params_.admin_hosts)
    ctx.host_count = std::max<std::size_t>(ctx.host_count, host + 1);
  std::vector<check::PlanTask> tasks;
  tasks.reserve(plan.size());
  for (const MigrationTask& task : plan) {
    tasks.push_back({task.component, task.from, task.to});
    ctx.locations.emplace(task.component, task.from);
  }
  ctx.component_memory_kb = component_memory_kb_;
  ctx.host_used_memory_kb = host_memory_kb_;
  ctx.host_capacity_kb = deployer_params_.host_capacity_kb;

  check::CheckReport verdict = check::MigrationPlanChecker().check(tasks, ctx);
  const bool reject = !verdict.ok();
  last_preflight_ = std::move(verdict);
  if (!reject) return false;

  util::log_warn("prism.deployer", "preflight rejected epoch ", epoch_,
                 " before any prepare was sent:\n",
                 last_preflight_->render_text());
  ++plans_rejected_;
  if (obs_.metrics) obs_.metrics->counter("deploy.preflight_rejected").add(1);
  abort_unopened_round(plan, checkpoint);
  return true;
}

void DeployerComponent::abort_unopened_round(
    const std::vector<MigrationTask>& plan,
    const std::map<std::string, model::HostId>& checkpoint) {
  RoundRecord record;
  record.epoch = epoch_;
  record.outcome = TxnOutcome::kAborted;
  record.moves_requested = plan.size();
  record.declared = checkpoint;
  for (const MigrationTask& task : plan)
    record.proposed.emplace(task.component, task.to);
  history_.push_back(std::move(record));
  last_outcome_ = TxnOutcome::kAborted;
  ++rounds_rolled_back_;
  if (obs_.metrics) obs_.metrics->counter("deploy.txn.aborted").add(1);
  finish(false);
}

void DeployerComponent::send_prepare() {
  ++prepare_attempts_;
  // Plan blob: u32 count, then per record: str component, u32 target host,
  // f64 memory footprint (0 when no monitor report mentioned it yet).
  ByteWriter blob;
  blob.u32(static_cast<std::uint32_t>(round_.tasks().size()));
  for (const MigrationTask& task : round_.tasks()) {
    blob.str(task.component);
    blob.u32(task.to);
    const auto it = component_memory_kb_.find(task.component);
    blob.f64(it != component_memory_kb_.end() ? it->second : 0.0);
  }
  std::vector<std::uint8_t> plan_blob = blob.take();

  // Sample the admission throttle once per fan-out: a ratekeeper can cap
  // the burst and space the batches while user traffic is breaching SLO.
  PrepareThrottle throttle;
  if (deployer_params_.throttle) throttle = deployer_params_.throttle();
  std::vector<model::HostId> targets(round_.participants().begin(),
                                     round_.participants().end());
  const std::size_t batch =
      throttle.max_batch == 0
          ? targets.size()
          : std::min(throttle.max_batch, targets.size());
  if (obs_.metrics && batch < targets.size())
    obs_.metrics->counter("deploy.txn.prepare_throttled").add(1);
  send_prepare_batch(epoch_, std::move(plan_blob), std::move(targets), 0,
                     batch, throttle.inter_batch_delay_ms);
}

void DeployerComponent::send_prepare_batch(
    std::uint64_t epoch, std::vector<std::uint8_t> plan_blob,
    std::vector<model::HostId> targets, std::size_t offset,
    std::size_t batch_size, double inter_batch_delay_ms) {
  // An abort, commit, or new round between batches cancels the remainder:
  // the prepare-retry machinery re-fans-out under the then-current throttle.
  if (epoch != epoch_ || round_.phase() != TxnPhase::kPrepare) return;
  const std::size_t end = std::min(offset + batch_size, targets.size());
  if (obs_.metrics) {
    obs_.metrics->counter("deploy.txn.prepare_sent").add(end - offset);
    obs_.metrics->counter("deploy.txn.prepare_batches").add(1);
  }
  for (std::size_t i = offset; i < end; ++i) {
    Event prepare("__prepare");
    prepare.set_to(admin_name(targets[i]));
    prepare.set("plan", plan_blob);
    prepare.set("epoch", static_cast<double>(epoch));
    send(std::move(prepare));
  }
  if (end >= targets.size()) return;
  architecture()->scaffold().schedule(
      std::max(inter_batch_delay_ms, 0.0),
      [this, epoch, plan_blob = std::move(plan_blob),
       targets = std::move(targets), end, batch_size,
       inter_batch_delay_ms]() mutable {
        send_prepare_batch(epoch, std::move(plan_blob), std::move(targets),
                           end, batch_size, inter_batch_delay_ms);
      });
}

void DeployerComponent::schedule_prepare_retry(std::uint64_t epoch) {
  architecture()->scaffold().schedule(
      deployer_params_.renotify_interval_ms, [this, epoch] {
        if (epoch != epoch_ || round_.phase() != TxnPhase::kPrepare) return;
        if (prepare_attempts_ >= deployer_params_.prepare_max_attempts) {
          util::log_warn("prism.deployer", "prepare for epoch ", epoch,
                         " exhausted its ", prepare_attempts_,
                         " sends with ", round_.prepare_pending(),
                         " votes missing; aborting");
          if (obs_.metrics)
            obs_.metrics->counter("deploy.txn.prepare_exhausted").add(1);
          abort_round();
          return;
        }
        ++renotify_total_;
        if (obs_.metrics)
          obs_.metrics->counter("deploy.renotify_total").add(1);
        send_prepare();
        schedule_prepare_retry(epoch);
      });
}

void DeployerComponent::schedule_round_deadline(std::uint64_t epoch) {
  architecture()->scaffold().schedule(
      deployer_params_.redeploy_timeout_ms, [this, epoch] {
        if (epoch != epoch_ || !round_.active()) return;
        if (round_.phase() == TxnPhase::kRollback) return;  // own deadline
        if (obs_.metrics) obs_.metrics->counter("deploy.timeouts").add(1);
        if (round_.phase() == TxnPhase::kPrepare) {
          util::log_warn("prism.deployer", "redeployment timed out in "
                         "prepare with ", round_.prepare_pending(),
                         " votes missing");
          abort_round();
        } else {
          util::log_warn("prism.deployer", "redeployment timed out with ",
                         round_.open_tasks(),
                         " migrations unconfirmed; rolling back");
          begin_rollback("commit deadline");
        }
      });
}

void DeployerComponent::abort_round() {
  // Nothing has been asked to move yet: releasing the participants'
  // reservations is the only compensation an aborted prepare needs.
  for (const model::HostId host : round_.participants()) {
    Event abort_event("__abort");
    abort_event.set_to(admin_name(host));
    abort_event.set("epoch", static_cast<double>(epoch_));
    send(std::move(abort_event));
  }
  end_phase_span(phase_span_, false);
  close_round(TxnOutcome::kAborted);
}

void DeployerComponent::handle_prepare_ack(const Event& event) {
  const std::optional<double> host = event.get_double("host");
  const std::optional<double> epoch = event.get_double("epoch");
  if (!host || !epoch) return;
  if (static_cast<std::uint64_t>(*epoch) != epoch_ ||
      round_.phase() != TxnPhase::kPrepare)
    return;  // late vote from an abandoned round
  const bool ok = event.get_bool("ok").value_or(false);
  if (!round_.vote(static_cast<model::HostId>(*host), ok)) return;
  if (!ok) {
    if (obs_.metrics) obs_.metrics->counter("deploy.txn.votes_no").add(1);
    util::log_warn("prism.deployer", "host ",
                   static_cast<model::HostId>(*host), " vetoed epoch ",
                   epoch_, " (capacity); aborting");
    abort_round();
    return;
  }
  if (round_.prepared()) start_commit();
}

void DeployerComponent::start_commit() {
  end_phase_span(phase_span_, true);
  round_.start_commit();
  if (obs_.metrics) obs_.metrics->counter("deploy.txn.commits").add(1);
  phase_span_ = begin_phase_span(
      "deploy.txn.commit", static_cast<std::int64_t>(round_.open_tasks()),
      "migrations");
  if (round_.open_tasks() == 0) {
    // Every migration was already confirmed while votes were being
    // collected (acks raced ahead of the prepare round trip).
    check_round_completion();
    return;
  }
  broadcast_new_config();
  for (MigrationTask& task : round_.tasks()) {
    if (task.done) continue;
    task.attempts = 1;
    task.retry_delay_ms = deployer_params_.renotify_interval_ms;
    // The broadcast config omits recovered components (their source is
    // dead — no admin can pull them), so their payload ships immediately
    // instead of waiting for the first retry tick.
    if (recovery_payloads_.count(task.component) > 0) send_task_config(task);
    schedule_task_retry(epoch_, TxnPhase::kCommit, task.component,
                        task.retry_delay_ms);
  }
}

void DeployerComponent::broadcast_new_config() {
  // Serialize desired configuration + currently believed locations. Built
  // fresh on every (re)broadcast so locations reflect partial progress.
  ByteWriter config;
  config.u32(0);  // count, patched below
  std::uint32_t config_count = 0;
  for (const auto& [component, host] : current_target_) {
    // Recovered components cannot be requested from their dead source; the
    // targeted __recover_component in send_task_config ships them instead,
    // so the broadcast config omits them (admins acting on the broadcast
    // would only spam the dead host with __request_component retries).
    if (recovery_payloads_.count(component) > 0) continue;
    config.str(component);
    config.u32(host);
    ++config_count;
  }
  config.patch_u32(0, config_count);
  const std::vector<std::uint8_t> config_blob = config.take();

  ByteWriter locations;
  locations.u32(0);  // count, patched below
  std::uint32_t location_count = 0;
  for (const auto& [component, host] : current_target_) {
    if (recovery_payloads_.count(component) > 0) continue;
    if (const std::optional<model::HostId> current =
            connector().location(intern(component))) {
      locations.str(component);
      locations.u32(*current);
      ++location_count;
    }
  }
  locations.patch_u32(0, location_count);
  const std::vector<std::uint8_t> locations_blob = locations.take();

  for (const model::HostId admin_host : deployer_params_.admin_hosts) {
    Event new_config("__new_config");
    new_config.set_to(admin_name(admin_host));
    new_config.set("config", config_blob);
    new_config.set("locations", locations_blob);
    new_config.set("epoch", static_cast<double>(epoch_));
    // The master host's own admin is a separate component welded to the
    // same connector, so local and remote admins are addressed uniformly.
    send(std::move(new_config));
  }
}

void DeployerComponent::send_task_config(const MigrationTask& task) {
  // Recovery migrations cannot be pulled from their dead source: ship the
  // substitute payload directly to the target admin instead. The admin
  // treats it like an arriving __component_transfer (attach, record
  // custody, announce ownership, __migration_ack back), so the round's
  // bookkeeping is oblivious to the difference. Retries re-send the same
  // payload; duplicates are retired by the custody version. Rollback of an
  // unfinished recovery migration would re-target the dead host — the
  // event is sent and dropped there, and the round (always allow_partial)
  // keeps whatever committed.
  const auto payload = recovery_payloads_.find(task.component);
  if (payload != recovery_payloads_.end() &&
      round_.phase() != TxnPhase::kRollback) {
    Event recover("__recover_component");
    recover.set_to(admin_name(task.to));
    recover.set("component", task.component);
    recover.set("type", payload->second.type);
    recover.set("memory_kb", payload->second.memory_kb);
    recover.set("state", payload->second.state);
    const auto custody = recovery_custody_.find(task.component);
    if (custody != recovery_custody_.end())
      recover.set("custody", static_cast<double>(custody->second));
    recover.set("epoch", static_cast<double>(epoch_));
    send(std::move(recover));
    return;
  }
  // Targeted single-component __new_config. `confirm` asks the receiving
  // admin to positively acknowledge a component it already holds — without
  // it, a migration (or compensation) whose work happened but whose acks
  // were all lost could never be confirmed, only timed out.
  ByteWriter config;
  config.u32(1);
  config.str(task.component);
  config.u32(task.to);
  ByteWriter locations;
  if (const std::optional<model::HostId> current =
          connector().location(intern(task.component))) {
    locations.u32(1);
    locations.str(task.component);
    locations.u32(*current);
  } else {
    locations.u32(0);
  }
  Event config_event("__new_config");
  config_event.set_to(admin_name(task.to));
  config_event.set("config", config.take());
  config_event.set("locations", locations.take());
  config_event.set("epoch", static_cast<double>(epoch_));
  config_event.set("confirm", true);
  send(std::move(config_event));
}

void DeployerComponent::schedule_task_retry(std::uint64_t epoch,
                                            TxnPhase phase,
                                            std::string component,
                                            double delay_ms) {
  architecture()->scaffold().schedule(
      delay_ms, [this, epoch, phase, component = std::move(component)] {
        if (epoch != epoch_ || round_.phase() != phase) return;
        MigrationTask* task = nullptr;
        for (MigrationTask& t : round_.tasks()) {
          if (t.component == component) {
            task = &t;
            break;
          }
        }
        if (!task || task->done) return;
        if (task->attempts >= deployer_params_.migration_max_attempts) {
          if (obs_.metrics)
            obs_.metrics->counter("deploy.txn.migration_exhausted").add(1);
          if (phase == TxnPhase::kCommit) {
            util::log_warn("prism.deployer", "migration of '", component,
                           "' exhausted its retry budget; rolling back");
            begin_rollback("migration retries exhausted");
          } else {
            util::log_error("prism.deployer", "compensation of '", component,
                            "' exhausted its retry budget; rollback failed");
            end_phase_span(phase_span_, false);
            close_round(TxnOutcome::kRollbackFailed);
          }
          return;
        }
        ++task->attempts;
        ++renotify_total_;
        if (obs_.metrics) {
          obs_.metrics->counter("deploy.renotify_total").add(1);
          obs_.metrics->counter("deploy.txn.migration_retries").add(1);
        }
        send_task_config(*task);
        task->retry_delay_ms =
            std::min(task->retry_delay_ms * deployer_params_.retry_backoff,
                     deployer_params_.retry_max_ms);
        schedule_task_retry(epoch, phase, task->component,
                            task->retry_delay_ms);
      });
}

void DeployerComponent::begin_rollback(const std::string& reason) {
  end_phase_span(phase_span_, false);
  if (obs_.metrics) obs_.metrics->counter("deploy.txn.rollbacks").add(1);
  util::log_warn("prism.deployer", "rolling back epoch ", epoch_, ": ",
                 reason);
  const std::size_t compensations = round_.start_rollback();
  if (obs_.metrics && compensations > 0)
    obs_.metrics->counter("deploy.txn.compensations").add(compensations);
  if (round_.open_tasks() == 0) {
    check_round_completion();
    return;
  }
  phase_span_ = begin_phase_span("deploy.txn.rollback",
                                 static_cast<std::int64_t>(compensations),
                                 "compensations");
  for (MigrationTask& task : round_.tasks()) {
    task.attempts = 1;
    task.retry_delay_ms = deployer_params_.renotify_interval_ms;
    send_task_config(task);
    schedule_task_retry(epoch_, TxnPhase::kRollback, task.component,
                        task.retry_delay_ms);
  }
  const std::uint64_t epoch = epoch_;
  architecture()->scaffold().schedule(
      deployer_params_.rollback_timeout_ms, [this, epoch] {
        if (epoch != epoch_ || round_.phase() != TxnPhase::kRollback) return;
        util::log_error("prism.deployer", "rollback of epoch ", epoch,
                        " timed out with ", round_.open_tasks(),
                        " compensations unconfirmed");
        end_phase_span(phase_span_, false);
        close_round(TxnOutcome::kRollbackFailed);
      });
}

void DeployerComponent::handle_migration_ack(const Event& event) {
  const std::string* component = event.get_string("component");
  const std::optional<double> host = event.get_double("host");
  if (!component || !host) return;
  // An ack from an earlier epoch is a late arrival from an abandoned round:
  // its component may not even be part of the current target, and counting
  // it would mark the current round's migration done before it happened.
  if (!ack_epoch_matches(event)) return;
  // An epoch-matching ack whose migration is already retired — the round
  // closed, or this component's task was confirmed once already — is a
  // network duplicate. It must neither touch the location table (custody
  // of the transferred copy is retired; re-pointing the table at it would
  // poison routing until the next round) nor re-open any bookkeeping.
  if (!round_.active() || !round_.has_open_task(*component)) {
    ++stale_acks_total_;
    if (obs_.metrics)
      obs_.metrics->counter("deploy.stale_acks_total").add(1);
    util::log_debug("prism.deployer", "ignoring duplicate ack for '",
                    *component, "' (epoch ", epoch_,
                    "; its migration is already retired)");
    return;
  }
  const auto at = static_cast<model::HostId>(*host);
  connector().set_location(intern(*component), at);
  if (round_.acknowledge(*component, at)) check_round_completion();
}

void DeployerComponent::check_round_completion() {
  if (!round_.active() || round_.open_tasks() != 0) return;
  end_phase_span(phase_span_, true);
  if (round_.phase() == TxnPhase::kRollback) {
    close_round(round_.kept() > 0 ? TxnOutcome::kPartial
                                  : TxnOutcome::kRolledBack);
  } else {
    // Every migration confirmed — possibly while still formally in
    // PREPARE, when the acks raced ahead of the votes.
    close_round(TxnOutcome::kCommitted);
  }
}

void DeployerComponent::close_round(TxnOutcome outcome) {
  RoundRecord record = round_.close(outcome);
  last_outcome_ = outcome;
  if (outcome == TxnOutcome::kAborted || outcome == TxnOutcome::kRolledBack ||
      outcome == TxnOutcome::kPartial ||
      outcome == TxnOutcome::kRollbackFailed)
    ++rounds_rolled_back_;
  if (obs_.metrics)
    obs_.metrics->counter(std::string("deploy.txn.") + to_string(outcome))
        .add(1);
  if (!record.unresolved.empty()) {
    std::string names;
    for (const std::string& component : record.unresolved) {
      if (!names.empty()) names += ", ";
      names += component;
    }
    util::log_warn("prism.deployer", "round ", record.epoch, " closed ",
                   to_string(outcome), " with unresolved components: ",
                   names);
  }
  history_.push_back(std::move(record));
  finish(outcome == TxnOutcome::kCommitted);
}

obs::TraceLog::SpanId DeployerComponent::begin_phase_span(
    const char* name, std::int64_t extra, const char* extra_key) {
  if (!obs_.trace) return obs::TraceLog::kInvalidSpan;
  return obs_.trace->begin_span(
      architecture()->scaffold().now_ms(), name,
      {{"epoch", static_cast<std::int64_t>(epoch_)}, {extra_key, extra}});
}

void DeployerComponent::end_phase_span(obs::TraceLog::SpanId& span, bool ok) {
  if (!obs_.trace || span == obs::TraceLog::kInvalidSpan) return;
  obs_.trace->span_field(span, "ok", ok);
  obs_.trace->end_span(span, architecture()->scaffold().now_ms());
  span = obs::TraceLog::kInvalidSpan;
}

void DeployerComponent::announce_location(const std::string& component) {
  const std::optional<model::HostId> at =
      connector().location(intern(component));
  if (!at || crashed()) return;
  Event update("__location_update");
  update.set("component", component);
  update.set("host", static_cast<double>(*at));
  update.set("restored", false);
  const auto belief = custody_beliefs_.find(component);
  if (belief != custody_beliefs_.end())
    update.set("custody", static_cast<double>(belief->second));
  send(Event(update));  // broadcast to directly connected peers
  // Directed copies reach the whole fleet even when the broadcast cannot:
  // the point of the re-announce is precisely a host that just came back
  // from a partition and missed every broadcast.
  for (const model::HostId host : deployer_params_.admin_hosts) {
    Event directed(update);
    directed.set_to(admin_name(host));
    send(std::move(directed));
  }
}

void DeployerComponent::finish(bool success) {
  // The round (if any) is over; substitute payloads must not leak into the
  // next round's broadcast/config logic.
  recovery_payloads_.clear();
  recovery_custody_.clear();
  if (success) ++completed_;
  const double now = architecture() ? architecture()->scaffold().now_ms()
                                    : redeploy_start_ms_;
  if (obs_.metrics) {
    if (success) {
      obs_.metrics->counter("deploy.redeployments_succeeded").add(1);
      obs_.metrics->counter("deploy.migrations").add(migrations_requested_);
    } else {
      obs_.metrics->counter("deploy.redeployments_failed").add(1);
    }
    obs_.metrics->histogram("deploy.redeploy_ms")
        .observe(now - redeploy_start_ms_);
  }
  if (obs_.trace && redeploy_span_ != obs::TraceLog::kInvalidSpan) {
    obs_.trace->span_field(redeploy_span_, "success", success);
    obs_.trace->span_field(redeploy_span_, "migrations",
                           static_cast<std::int64_t>(migrations_requested_));
    obs_.trace->span_field(redeploy_span_, "renotify_total",
                           static_cast<std::int64_t>(renotify_total_));
    obs_.trace->span_field(redeploy_span_, "outcome",
                           std::string(to_string(last_outcome_)));
    obs_.trace->end_span(redeploy_span_, now);
    redeploy_span_ = obs::TraceLog::kInvalidSpan;
  }
  if (completion_) {
    CompletionHandler done = std::move(completion_);
    completion_ = nullptr;
    done(success, migrations_requested_);
  }
}

}  // namespace dif::prism
