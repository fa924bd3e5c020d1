#include "chaos/fault_schedule.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "chaos/overlap_ledger.h"
#include "util/rng.h"

namespace dif::chaos {

std::string_view to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kLossBurst:
      return "loss_burst";
    case FaultKind::kDegrade:
      return "degrade";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kNoise:
      return "noise";
  }
  return "unknown";
}

namespace {

// Draws `spec`'s fault counts against `m`'s topology into `out`, reserving
// every emitted window in `ledger` (8 redraw attempts per fault, then the
// fault is skipped).
void draw_scenario_actions(const ScenarioSpec& spec,
                           const model::DeploymentModel& m,
                           model::HostId master_host, util::Xoshiro256ss& rng,
                           OverlapLedger& ledger,
                           std::vector<FaultAction>& out) {
  std::vector<std::pair<model::HostId, model::HostId>> links;
  m.for_each_physical_link([&](model::HostId a, model::HostId b,
                               const model::PhysicalLink& link) {
    if (link.bandwidth > 0.0) links.emplace_back(a, b);
  });
  const std::size_t k = m.host_count();

  std::vector<model::HostId> crashable;
  for (std::size_t h = 0; h < k; ++h)
    if (spec.crash_master || static_cast<model::HostId>(h) != master_host)
      crashable.push_back(static_cast<model::HostId>(h));

  const double window_lo = spec.fault_from_ms;
  const double window_hi = std::max(spec.fault_until_ms, window_lo);

  const auto draw_window = [&](double& at, double& duration) {
    duration = rng.uniform(spec.min_fault_ms,
                           std::max(spec.min_fault_ms, spec.max_fault_ms));
    duration = std::min(duration, window_hi - window_lo);
    at = rng.uniform(window_lo, std::max(window_lo, window_hi - duration));
  };

  const auto emit = [&](FaultKind kind, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        FaultAction action;
        action.kind = kind;
        std::size_t lane_target = 0;
        if (kind == FaultKind::kCrash) {
          if (crashable.empty()) return;
          action.a = action.b = crashable[rng.index(crashable.size())];
          lane_target = action.a;
        } else {
          if (links.empty()) return;
          const auto& [a, b] = links[rng.index(links.size())];
          action.a = a;
          action.b = b;
          lane_target = static_cast<std::size_t>(a) * k + b;
        }
        draw_window(action.at_ms, action.duration_ms);
        if (action.duration_ms <= 0.0) break;
        if (!ledger.reserve(field_group(kind), lane_target, action.at_ms,
                            action.duration_ms))
          continue;  // redraw
        out.push_back(action);
        break;
      }
    }
  };

  emit(FaultKind::kPartition, spec.partitions);
  emit(FaultKind::kLossBurst, spec.loss_bursts);
  emit(FaultKind::kDegrade, spec.degradations);
  emit(FaultKind::kCrash, spec.crashes);
  emit(FaultKind::kNoise, spec.noise_bursts);
}

}  // namespace

FaultSchedule FaultSchedule::compile(const ScenarioSpec& spec,
                                     const model::DeploymentModel& m,
                                     model::HostId master_host,
                                     std::uint64_t seed) {
  FaultSchedule schedule;
  schedule.spec_ = spec;

  // Independent chaos stream: campaigns share their seed with the system
  // generator and the framework, and must not perturb those streams.
  util::Xoshiro256ss rng =
      util::Xoshiro256ss(seed).fork(/*stream_id=*/0xc4a05u);

  OverlapLedger ledger;
  draw_scenario_actions(spec, m, master_host, rng, ledger, schedule.actions_);
  std::sort(schedule.actions_.begin(), schedule.actions_.end(),
            [](const FaultAction& x, const FaultAction& y) {
              return std::tie(x.at_ms, x.kind, x.a, x.b, x.duration_ms) <
                     std::tie(y.at_ms, y.kind, y.a, y.b, y.duration_ms);
            });
  return schedule;
}

void FaultInjector::arm(const FaultSchedule& schedule) {
  spec_ = schedule.spec();
  for (const FaultAction& action : schedule.actions())
    inst_.simulator().schedule_at(action.at_ms,
                                  [this, action] { inject(action); });
}

void FaultInjector::inject(const FaultAction& action) {
  ++injected_[std::string(to_string(action.kind))];
  const double now = inst_.simulator().now();
  if (obs_.metrics)
    obs_.metrics
        ->counter("chaos.fault." + std::string(to_string(action.kind)))
        .add(1);
  obs::TraceLog::SpanId span = obs::TraceLog::kInvalidSpan;
  if (obs_.trace)
    span = obs_.trace->begin_span(
        now, "chaos.fault",
        {{"kind", std::string(to_string(action.kind))},
         {"a", static_cast<std::int64_t>(action.a)},
         {"b", static_cast<std::int64_t>(action.b)},
         {"duration_ms", action.duration_ms}});

  sim::SimNetwork& net = inst_.network();
  sim::LinkState saved{};
  switch (action.kind) {
    case FaultKind::kPartition:
      net.sever(action.a, action.b);
      break;
    case FaultKind::kLossBurst: {
      saved = net.link(action.a, action.b);
      sim::LinkState burst = saved;
      burst.reliability = spec_.burst_reliability;
      net.set_link(action.a, action.b, burst);
      break;
    }
    case FaultKind::kDegrade: {
      saved = net.link(action.a, action.b);
      sim::LinkState degraded = saved;
      degraded.bandwidth *= spec_.degrade_bandwidth_factor;
      degraded.delay_ms *= spec_.degrade_delay_factor;
      net.set_link(action.a, action.b, degraded);
      break;
    }
    case FaultKind::kCrash:
      inst_.crash_host(action.a);
      break;
    case FaultKind::kNoise:
      saved = net.link(action.a, action.b);
      oscillate(action, saved, action.at_ms + action.duration_ms,
                /*high=*/false);
      break;
  }
  inst_.simulator().schedule_at(
      action.at_ms + action.duration_ms,
      [this, action, saved, span] { heal(action, saved, span); });
}

void FaultInjector::heal(const FaultAction& action,
                         const sim::LinkState& saved,
                         obs::TraceLog::SpanId span) {
  sim::SimNetwork& net = inst_.network();
  switch (action.kind) {
    case FaultKind::kPartition:
      net.restore(action.a, action.b);
      break;
    case FaultKind::kLossBurst:
    case FaultKind::kDegrade:
    case FaultKind::kNoise: {
      // Restore the saved parameters but keep whatever the severed flag is
      // now — a concurrently armed partition owns that field.
      sim::LinkState healed = saved;
      healed.severed = net.link(action.a, action.b).severed;
      net.set_link(action.a, action.b, healed);
      break;
    }
    case FaultKind::kCrash:
      inst_.restart_host(action.a);
      break;
  }
  if (obs_.trace && span != obs::TraceLog::kInvalidSpan)
    obs_.trace->end_span(span, inst_.simulator().now());
}

void FaultInjector::oscillate(const FaultAction& action, sim::LinkState base,
                              double until_ms, bool high) {
  sim::SimNetwork& net = inst_.network();
  sim::LinkState noisy = net.link(action.a, action.b);
  const double factor =
      high ? 1.0 + spec_.noise_amplitude : 1.0 - spec_.noise_amplitude;
  noisy.reliability = std::clamp(base.reliability * factor, 0.01, 1.0);
  net.set_link(action.a, action.b, noisy);
  const double next = inst_.simulator().now() + spec_.noise_period_ms;
  if (next >= until_ms) return;  // the heal event restores `base`
  inst_.simulator().schedule_at(next, [this, action, base, until_ms, high] {
    if (inst_.simulator().now() >= until_ms) return;
    oscillate(action, base, until_ms, !high);
  });
}

}  // namespace dif::chaos
