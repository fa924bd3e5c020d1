// Seed-replayable fault schedules and their injector.
//
// FaultSchedule::compile turns a ScenarioSpec plus a deployment model into
// a concrete, timed list of fault actions: which link partitions when,
// which host crashes for how long, which link's reliability collapses or
// oscillates. Compilation is a pure function of (spec, model, seed) — the
// same triple always yields the identical action list, which is what makes
// whole campaigns byte-for-byte replayable.
//
// FaultInjector arms a compiled schedule on a running
// CentralizedInstantiation: every action is scheduled on the simulator as
// an onset event and a heal event (crashes restart, partitions restore,
// degraded links get their saved parameters back). Each injected fault
// feeds a "chaos.fault.<kind>" counter and leaves a "chaos.fault" span in
// the trace log covering its onset-to-heal window.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/scenario.h"
#include "core/centralized_instantiation.h"
#include "model/deployment_model.h"
#include "obs/instruments.h"

namespace dif::chaos {

enum class FaultKind {
  kPartition,   // sever link (a, b), restore at heal
  kLossBurst,   // link (a, b) reliability -> spec.burst_reliability
  kDegrade,     // link (a, b) bandwidth/delay squeezed
  kCrash,       // host a crashes (admin state loss), restarts at heal
  kNoise,       // link (a, b) reliability oscillates at noise_period_ms
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;

/// One concrete fault: strikes at `at_ms`, heals at `at_ms + duration_ms`.
struct FaultAction {
  FaultKind kind = FaultKind::kPartition;
  double at_ms = 0.0;
  double duration_ms = 0.0;
  model::HostId a = 0;  // crash target, or link endpoint (a < b)
  model::HostId b = 0;  // unused for kCrash
};

class FaultSchedule {
 public:
  /// Deterministically draws the spec's fault counts against `m`'s actual
  /// topology: link faults hit existing physical links, crashes hit
  /// non-master hosts unless spec.crash_master. Actions are ordered by
  /// (at_ms, kind, a, b). Models with no links simply yield no link faults.
  [[nodiscard]] static FaultSchedule compile(const ScenarioSpec& spec,
                                             const model::DeploymentModel& m,
                                             model::HostId master_host,
                                             std::uint64_t seed);

  [[nodiscard]] const std::vector<FaultAction>& actions() const noexcept {
    return actions_;
  }
  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }

 private:
  ScenarioSpec spec_;
  std::vector<FaultAction> actions_;
};

class FaultInjector {
 public:
  /// The instantiation must outlive the injector; `instruments` members may
  /// be null (no observability).
  FaultInjector(core::CentralizedInstantiation& instantiation,
                obs::Instruments instruments)
      : inst_(instantiation), obs_(instruments) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every action's onset and heal on the instantiation's
  /// simulator. Call once, before (or while) the simulation runs; the
  /// injector must then outlive the scheduled horizon.
  void arm(const FaultSchedule& schedule);

  /// Injected-fault counts per kind name ("partition", "crash", ...).
  [[nodiscard]] const std::map<std::string, std::uint64_t>& injected()
      const noexcept {
    return injected_;
  }

 private:
  void inject(const FaultAction& action);
  void heal(const FaultAction& action, const sim::LinkState& saved,
            obs::TraceLog::SpanId span);
  /// Flips the noise oscillation until `until_ms`, then restores `base`.
  void oscillate(const FaultAction& action, sim::LinkState base,
                 double until_ms, bool high);

  core::CentralizedInstantiation& inst_;
  obs::Instruments obs_;
  ScenarioSpec spec_;  // magnitudes, copied from the armed schedule
  std::map<std::string, std::uint64_t> injected_;
};

}  // namespace dif::chaos
