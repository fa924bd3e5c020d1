#include "heal/recovery.h"

#include <algorithm>
#include <utility>

#include "algo/registry.h"
#include "model/constraints.h"
#include "model/incremental.h"
#include "model/objective.h"
#include "prism/bytes.h"

namespace dif::heal {

RecoveryPlanner::RecoveryPlanner(const desi::SystemData& pristine,
                                 Options options)
    : pristine_(pristine), options_(std::move(options)) {}

RecoveryPlan RecoveryPlanner::plan(
    const model::Deployment& current, model::HostId dead,
    const std::vector<model::HostId>& avoid) const {
  RecoveryPlan plan;
  const model::DeploymentModel& m = pristine_.model();
  const auto is_avoided = [&avoid](model::HostId h) {
    return std::find(avoid.begin(), avoid.end(), h) != avoid.end();
  };

  // Everything the runtime believes lives on the dead host is lost.
  model::Deployment work = current;
  std::vector<model::ComponentId> lost_ids;
  for (model::ComponentId c = 0; c < m.component_count(); ++c) {
    if (work.is_assigned(c) && work.host_of(c) == dead) {
      lost_ids.push_back(c);
      plan.lost.push_back(m.component(c).name);
      work.unassign(c);
    }
  }
  if (lost_ids.empty()) {
    plan.feasible = true;
    for (model::ComponentId c = 0; c < m.component_count(); ++c)
      if (work.is_assigned(c)) plan.target.emplace_back(m.component(c).name,
                                                        work.host_of(c));
    return plan;
  }

  // The repair constraint set: nothing may land on the dead host, and the
  // lost components additionally avoid suspects (live components already on
  // a merely-suspect host stay put — eviction is not recovery's job).
  model::ConstraintSet repaired = pristine_.constraints();
  for (model::ComponentId c = 0; c < m.component_count(); ++c) {
    repaired.forbid_host(c, dead);
    if (std::find(lost_ids.begin(), lost_ids.end(), c) != lost_ids.end())
      for (const model::HostId h : avoid) repaired.forbid_host(c, h);
  }
  const model::ConstraintChecker checker(m, repaired);
  model::AvailabilityObjective objective;

  // Greedy seed: place each lost component on the feasible live host that
  // maximizes the incrementally-scored objective.
  auto evaluator = model::IncrementalEvaluator::try_create(objective, m);
  if (evaluator) evaluator->reset(work);
  bool all_placed = true;
  for (const model::ComponentId c : lost_ids) {
    model::HostId best = model::kNoHost;
    double best_score = 0.0;
    for (model::HostId h = 0; h < m.host_count(); ++h) {
      if (h == dead || is_avoided(h)) continue;
      if (!checker.placement_ok(work, c, h)) continue;
      double score = 0.0;
      if (evaluator) {
        evaluator->apply(c, h);
        score = evaluator->score();
        evaluator->apply(c, model::kNoHost);
      }
      if (best == model::kNoHost || score > best_score) {
        best = h;
        best_score = score;
      }
    }
    if (best == model::kNoHost) {
      all_placed = false;
      continue;
    }
    work.assign(c, best);
    if (evaluator) evaluator->apply(c, best);
  }
  plan.feasible = all_placed;

  // Warm-start polish: bounded search over the lost components'
  // neighbourhood, seeded with the greedy repair. Promptness beats
  // optimality here — the improvement loop keeps refining afterwards.
  if (all_placed && work.complete() && options_.max_evaluations > 0) {
    algo::AlgorithmRegistry registry = algo::AlgorithmRegistry::with_defaults();
    if (auto algorithm = registry.create(options_.algorithm)) {
      algo::AlgoOptions opts;
      opts.initial = work;
      opts.warm_start = true;
      opts.dirty_components = lost_ids;
      opts.max_evaluations = options_.max_evaluations;
      opts.seed = options_.seed;
      const algo::AlgoResult result =
          algorithm->run(m, objective, checker, opts);
      if (result.feasible && result.deployment.complete()) {
        bool off_dead = true;
        for (model::ComponentId c = 0; c < m.component_count(); ++c)
          if (result.deployment.host_of(c) == dead) off_dead = false;
        if (off_dead) work = result.deployment;
      }
    }
  }

  for (model::ComponentId c = 0; c < m.component_count(); ++c)
    if (work.is_assigned(c))
      plan.target.emplace_back(m.component(c).name, work.host_of(c));
  return plan;
}

HealController::HealController(core::CentralizedInstantiation& instantiation,
                               const desi::SystemData& pristine,
                               HealConfig config)
    : inst_(instantiation),
      pristine_(pristine),
      config_(std::move(config)),
      detector_(config_.detector),
      planner_(pristine, [&] {
        RecoveryPlanner::Options opts = config_.planner;
        if (config_.seed != 0) opts.seed = config_.seed;
        return opts;
      }()) {}

// Substitute state for a component lost with its host: a fresh
// WorkloadComponent wired with the pristine model's logical links (counters
// reset; epoch 1 so the restored instance auto-starts on attach — see
// WorkloadComponent::on_attached).
std::optional<prism::RecoveredComponent> HealController::recovered_state(
    const std::string& name) const {
  const model::DeploymentModel& m = pristine_.model();
  for (model::ComponentId c = 0; c < m.component_count(); ++c) {
    if (m.component(c).name != name) continue;
    prism::RecoveredComponent rc;
    rc.type = "workload";
    rc.memory_kb = m.component(c).memory_size;
    prism::ByteWriter writer;
    writer.f64(rc.memory_kb);
    writer.u64(0);  // sent
    writer.u64(0);  // received
    writer.u64(1);  // epoch: auto-start after attach
    std::vector<const model::Interaction*> links;
    for (const model::Interaction& ix : m.interactions())
      if (ix.a == c || ix.b == c) links.push_back(&ix);
    writer.u32(static_cast<std::uint32_t>(links.size()));
    for (const model::Interaction* ix : links) {
      writer.str(m.component(ix->a == c ? ix->b : ix->a).name);
      writer.f64(ix->frequency);
      writer.f64(ix->avg_event_size);
    }
    rc.state = writer.take();
    return rc;
  }
  return std::nullopt;
}

void HealController::start() {
  running_ = true;
  prism::DeployerComponent& deployer = inst_.deployer();
  deployer.set_heartbeat_listener([this](model::HostId host, double now_ms) {
    detector_.heartbeat(host, now_ms);
  });
  deployer.set_liveness_probe([this](model::HostId host) {
    return detector_.state(host, inst_.simulator().now()) !=
           HostState::kAlive;
  });
  // Arm the recovery-era ownership rules fleet-wide: custody-versioned
  // location rebroadcasts and custody-precedence conflict resolution. Both
  // stay off on recovery-off runs so those remain byte-identical to
  // pre-heal builds.
  deployer.set_custody_rebroadcast(true);
  const model::DeploymentModel& fleet = pristine_.model();
  for (model::HostId h = 0; h < fleet.host_count(); ++h)
    inst_.admin(h).set_custody_precedence(true);
  detector_.bootstrap_from(inst_.simulator().now());
  schedule_tick();
}

void HealController::schedule_tick() {
  inst_.simulator().schedule_after(config_.check_interval_ms, [this] {
    if (!running_) return;
    tick();
    schedule_tick();
  });
}

void HealController::tick() {
  const double now = inst_.simulator().now();
  sweep_states(now);
  dispatch_pending(now);
}

void HealController::sweep_states(double now_ms) {
  const model::DeploymentModel& m = pristine_.model();
  const model::HostId master = inst_.config().master_host;
  for (model::HostId h = 0; h < m.host_count(); ++h) {
    if (h == master) continue;  // the deployer's own host judges no one dead
    const HostState state = detector_.state(h, now_ms);
    const auto it = states_.find(h);
    const HostState prev = it == states_.end() ? HostState::kAlive : it->second;
    if (state == prev) continue;
    transitions_.push_back({h, now_ms, prev, state});
    if (state == HostState::kSuspect && prev == HostState::kAlive)
      ++suspicions_;
    if (state == HostState::kCondemned) {
      ++condemnations_;
      on_condemned(h, now_ms);
    } else if (prev == HostState::kCondemned) {
      ++rejoins_;
      on_rejoined(h, now_ms);
    }
    states_[h] = state;
  }
}

void HealController::on_condemned(model::HostId host, double now_ms) {
  // Flapping guard: while a host's loss is already repaired (or queued),
  // re-condemning it must not re-place anything.
  if (pending_.count(host) > 0 || open_record_.count(host) > 0) return;
  if (repaired_.count(host) > 0) return;
  open_record_[host] = recoveries_.size();
  RecoveryRecord record;
  record.host = host;
  record.condemned_at_ms = now_ms;
  recoveries_.push_back(record);
  pending_.insert(host);
}

void HealController::on_rejoined(model::HostId host, double /*now_ms*/) {
  for (RecoveryRecord& record : recoveries_)
    if (record.host == host) record.rejoined = true;
  repaired_.erase(host);
  // Anti-entropy push: re-announce where the fleet placed the components
  // this host lost custody of. The announcements carry the repair's bumped
  // custody version, so the rejoining host sheds its stale copies (see
  // AdminComponent::handle_location_update custody precedence).
  prism::DeployerComponent& deployer = inst_.deployer();
  for (const std::string& component : recovered_components_)
    deployer.announce_location(component);
}

std::vector<model::HostId> HealController::unsafe_hosts(double now_ms) const {
  std::vector<model::HostId> unsafe;
  const model::DeploymentModel& m = pristine_.model();
  for (model::HostId h = 0; h < m.host_count(); ++h)
    if (detector_.state(h, now_ms) != HostState::kAlive) unsafe.push_back(h);
  return unsafe;
}

void HealController::dispatch_pending(double now_ms) {
  if (pending_.empty()) return;
  prism::DeployerComponent& deployer = inst_.deployer();
  if (deployer.redeployment_in_flight()) return;  // retry next tick

  const model::HostId host = *pending_.begin();
  pending_.erase(pending_.begin());
  const auto record_it = open_record_.find(host);
  const std::size_t record_index =
      record_it != open_record_.end() ? record_it->second : recoveries_.size();

  const model::Deployment current = inst_.runtime_deployment();
  const RecoveryPlan plan = planner_.plan(current, host, unsafe_hosts(now_ms));
  if (plan.lost.empty()) {
    // Nothing was on the host (or a previous repair already moved it all).
    open_record_.erase(host);
    repaired_.insert(host);
    return;
  }

  std::map<std::string, prism::RecoveredComponent> lost;
  for (const std::string& name : plan.lost)
    if (auto state = recovered_state(name)) lost.emplace(name, *state);

  if (record_index < recoveries_.size())
    recoveries_[record_index].components = plan.lost.size();

  const std::vector<std::string> lost_names = plan.lost;
  const bool accepted = deployer.effect_recovery(
      plan.target, lost,
      [this, host, record_index, lost_names](bool success, std::size_t) {
        if (success) {
          if (record_index < recoveries_.size()) {
            recoveries_[record_index].committed = true;
            recoveries_[record_index].committed_at_ms =
                inst_.simulator().now();
          }
          open_record_.erase(host);
          ++committed_;
          repaired_.insert(host);
          for (const std::string& name : lost_names)
            recovered_components_.insert(name);
        } else {
          ++failed_;
          pending_.insert(host);  // re-plan on a later tick
        }
      });
  if (accepted) {
    ++started_;
  } else {
    pending_.insert(host);  // effector raced us; retry next tick
  }
}

double HealController::mean_mttr_ms() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const RecoveryRecord& r : recoveries_) {
    if (!r.committed) continue;
    sum += r.committed_at_ms - r.condemned_at_ms;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double HealController::max_mttr_ms() const {
  double worst = 0.0;
  for (const RecoveryRecord& r : recoveries_)
    if (r.committed)
      worst = std::max(worst, r.committed_at_ms - r.condemned_at_ms);
  return worst;
}

util::json::Value HealController::to_json() const {
  util::json::Object recovery;
  recovery["enabled"] = true;
  recovery["suspicions"] = suspicions_;
  recovery["condemnations"] = condemnations_;
  recovery["rejoins"] = rejoins_;
  recovery["recoveries_started"] = started_;
  recovery["recoveries_committed"] = committed_;
  recovery["recoveries_failed"] = failed_;
  recovery["mean_mttr_ms"] = mean_mttr_ms();
  recovery["max_mttr_ms"] = max_mttr_ms();
  util::json::Array events;
  for (const RecoveryRecord& r : recoveries_) {
    util::json::Object event;
    event["host"] = static_cast<std::uint64_t>(r.host);
    event["condemned_at_ms"] = r.condemned_at_ms;
    event["committed_at_ms"] = r.committed_at_ms;
    event["components"] = static_cast<std::uint64_t>(r.components);
    event["committed"] = r.committed;
    event["rejoined"] = r.rejoined;
    events.emplace_back(std::move(event));
  }
  recovery["events"] = util::json::Value(std::move(events));
  return util::json::Value(std::move(recovery));
}

}  // namespace dif::heal
