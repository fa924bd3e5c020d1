#include "check/plan_check.h"

#include <algorithm>
#include <set>
#include <utility>

#include "model/constraints.h"
#include "model/deployment.h"
#include "model/deployment_model.h"

namespace dif::check {

namespace {

using model::ComponentId;
using model::HostId;

// Capacity comparisons tolerate accumulated floating-point noise.
constexpr double kEpsilon = 1e-9;

std::string host_subject(const PlanContext& ctx, HostId h) {
  if (h < ctx.host_names.size()) return "host " + ctx.host_names[h];
  return "host #" + std::to_string(h);
}

double lookup(const std::map<std::string, double>& map,
              const std::string& key) {
  const auto it = map.find(key);
  return it == map.end() ? 0.0 : it->second;
}

double lookup(const std::map<HostId, double>& map, HostId key) {
  const auto it = map.find(key);
  return it == map.end() ? 0.0 : it->second;
}

}  // namespace

CheckReport MigrationPlanChecker::check(const std::vector<PlanTask>& plan,
                                        const PlanContext& ctx) const {
  CheckReport report;

  // Structural pass: duplicates/conflicts, dangling hosts, no-ops, custody.
  std::map<std::string, const PlanTask*> first_task;
  std::set<std::string> conflict_reported;
  std::vector<const PlanTask*> admitted;  // first occurrence, in-range hosts
  for (const PlanTask& task : plan) {
    const auto [it, fresh] = first_task.emplace(task.component, &task);
    if (!fresh) {
      if (conflict_reported.insert(task.component).second) {
        const PlanTask& prior = *it->second;
        const bool same = prior.from == task.from && prior.to == task.to;
        report.add({Rule::kPlanConflict,
                    Severity::kError,
                    {"component " + task.component},
                    same ? "the plan lists this migration twice"
                         : "the plan gives this component conflicting "
                           "migrations (" +
                               host_subject(ctx, prior.from) + "->" +
                               host_subject(ctx, prior.to) + " vs " +
                               host_subject(ctx, task.from) + "->" +
                               host_subject(ctx, task.to) + ")",
                    "collapse the duplicate tasks into one"});
      }
      continue;
    }

    bool in_range = true;
    if (ctx.host_count > 0) {
      for (const HostId h : {task.from, task.to}) {
        if (h < ctx.host_count) continue;
        in_range = false;
        report.add({Rule::kDanglingReference,
                    Severity::kError,
                    {"component " + task.component, host_subject(ctx, h)},
                    "the plan references host id " + std::to_string(h) +
                        " but the fleet has " +
                        std::to_string(ctx.host_count) + " hosts",
                    "point the task at an existing host"});
      }
    }

    if (task.from == task.to)
      report.add({Rule::kPlanNoop,
                  Severity::kWarning,
                  {"component " + task.component},
                  "source and destination are both " +
                      host_subject(ctx, task.from),
                  "drop the no-op task from the plan"});

    if (!ctx.locations.empty()) {
      const auto loc = ctx.locations.find(task.component);
      if (loc == ctx.locations.end()) {
        report.add({Rule::kPlanCustody,
                    Severity::kError,
                    {"component " + task.component},
                    "no believed location exists for this component: custody "
                    "is unknown",
                    "wait for a monitor report or drop the task"});
      } else if (loc->second != task.from) {
        report.add({Rule::kPlanCustody,
                    Severity::kError,
                    {"component " + task.component},
                    "the plan migrates it from " +
                        host_subject(ctx, task.from) +
                        " but custody places it on " +
                        host_subject(ctx, loc->second) +
                        ": a stale source would tear the transfer",
                    "re-plan from the believed location"});
      }
    }

    if (in_range) admitted.push_back(&task);
  }

  // Capacity pass over the admitted tasks, only for hosts with a modelled
  // capacity. The steady state matches the admins' prepare vote (outbound
  // credited); the transient peak does not credit outbound, modelling
  // source+destination double occupancy during the transfer window.
  if (!ctx.host_capacity_kb.empty()) {
    std::map<HostId, double> inbound;
    std::map<HostId, double> outbound;
    std::map<HostId, std::vector<std::string>> arrivals;
    for (const PlanTask* task : admitted) {
      if (task->from == task->to) continue;
      const double kb = lookup(ctx.component_memory_kb, task->component);
      inbound[task->to] += kb;
      outbound[task->from] += kb;
      arrivals[task->to].push_back(task->component);
    }
    for (const auto& [h, capacity] : ctx.host_capacity_kb) {
      if (capacity <= 0.0) continue;  // unmodelled, like the admin vote
      const auto arriving = arrivals.find(h);
      if (arriving == arrivals.end()) continue;  // nothing lands here
      const double used = lookup(ctx.host_used_memory_kb, h);
      const double in_kb = inbound[h];
      const double steady = used - outbound[h] + in_kb;
      const double transient = used + in_kb;
      if (steady > capacity + kEpsilon) {
        report.add({Rule::kPlanOverload,
                    Severity::kError,
                    {host_subject(ctx, h)},
                    "steady-state memory " + fmt(steady) +
                        " KB exceeds capacity " + fmt(capacity) +
                        " KB: the admins' prepare vote is certain to veto",
                    "shrink the plan or free the host first",
                    arriving->second});
      } else if (transient > capacity + kEpsilon) {
        report.add({Rule::kPlanTransientOverload,
                    Severity::kWarning,
                    {host_subject(ctx, h)},
                    "source+destination double occupancy peaks at " +
                        fmt(transient) + " KB against capacity " +
                        fmt(capacity) +
                        " KB during the transfer window (steady state " +
                        fmt(steady) + " KB fits)",
                    "stage the plan in smaller rounds",
                    arriving->second});
      }
    }
  }

  return report;
}

CheckReport check_plan(const model::DeploymentModel& m,
                       const model::ConstraintSet& set,
                       const model::Deployment& current,
                       const std::vector<PlanTask>& plan,
                       const AuditOptions& audit_options) {
  const std::size_t n = m.component_count();
  const std::size_t k = m.host_count();

  PlanContext ctx;
  ctx.host_count = k;
  ctx.host_names.reserve(k);
  for (std::size_t h = 0; h < k; ++h) {
    ctx.host_names.push_back(m.host(static_cast<HostId>(h)).name);
    ctx.host_capacity_kb[static_cast<HostId>(h)] =
        m.host(static_cast<HostId>(h)).memory_capacity;
  }
  for (std::size_t c = 0; c < std::min(current.size(), n); ++c) {
    const auto cid = static_cast<ComponentId>(c);
    const std::string& name = m.component(cid).name;
    ctx.component_memory_kb[name] = m.component(cid).memory_size;
    if (!current.is_assigned(cid) || current.host_of(cid) >= k) continue;
    ctx.locations[name] = current.host_of(cid);
    ctx.host_used_memory_kb[current.host_of(cid)] += m.component(cid).memory_size;
  }

  // Unknown component names are model defects, and their tasks are not
  // applied to the post-plan placement.
  CheckReport report;
  std::vector<PlanTask> known;
  known.reserve(plan.size());
  for (const PlanTask& task : plan) {
    if (ctx.component_memory_kb.count(task.component) == 0) {
      report.add({Rule::kDanglingReference,
                  Severity::kError,
                  {"component " + task.component},
                  "the plan names a component the model does not contain",
                  "fix the component name or add it to the model"});
      continue;
    }
    known.push_back(task);
  }

  const CheckReport checked = MigrationPlanChecker().check(known, ctx);
  for (const Diagnostic& d : checked.diagnostics()) report.add(d);

  // Post-plan placement validity: apply the admitted tasks to a copy and
  // run the placement auditor over the result.
  model::Deployment post = current;
  std::set<std::string> applied;
  std::map<std::string, ComponentId> by_name;
  for (std::size_t c = 0; c < n; ++c)
    by_name.emplace(m.component(static_cast<ComponentId>(c)).name,
                    static_cast<ComponentId>(c));
  for (const PlanTask& task : known) {
    if (task.to >= k || !applied.insert(task.component).second) continue;
    const auto it = by_name.find(task.component);
    if (it != by_name.end() && it->second < post.size())
      post.assign(it->second, task.to);
  }
  const CheckReport after =
      PlacementAuditor(audit_options).audit(m, set, post);
  for (const Diagnostic& d : after.diagnostics()) {
    Diagnostic copy = d;
    copy.message = "post-plan: " + copy.message;
    report.add(std::move(copy));
  }
  return report;
}

}  // namespace dif::check
