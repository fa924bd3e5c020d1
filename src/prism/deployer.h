// DeployerComponent: Prism-MW's Admin subclass that interfaces with DeSi
// (paper Section 4.2/4.3).
//
// It runs on the master host, doing everything an AdminComponent does for
// its own host, plus:
//   * aggregating the __monitor_report events from every Slave Admin and
//     handing them to a registered observer (DeSi's MiddlewareAdapter);
//   * driving redeployment as a *transaction* (TxnRound): PREPARE asks every
//     host that receives a component to reserve capacity and vote via
//     __prepare_ack; COMMIT broadcasts the new configuration and chases each
//     outstanding migration with targeted, capped-exponential-backoff
//     retries; a veto, deadline, or exhausted retry budget triggers
//     ABORT/ROLLBACK — compensating migrations that restore the
//     checkpointed pre-round placement (minus a kept sub-plan when
//     `allow_partial`);
//   * mediating interactions between hosts that are not directly connected
//     (location updates it hears are re-broadcast to its peers).
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "check/plan_check.h"
#include "obs/instruments.h"
#include "prism/admin.h"
#include "prism/txn_round.h"

namespace dif::prism {

/// One host's monitoring snapshot, decoded from a __monitor_report event.
struct HostReport {
  struct ComponentInfo {
    std::string name;
    double memory_kb = 0.0;
  };
  struct InteractionInfo {
    std::string from;
    std::string to;
    double frequency = 0.0;     // events/s, stability-filtered
    double avg_size_kb = 0.0;
  };
  struct ReliabilityInfo {
    model::HostId peer = 0;
    double reliability = 0.0;   // stability-filtered estimate
  };

  model::HostId host = 0;
  double memory_kb = 0.0;
  std::vector<ComponentInfo> components;
  std::vector<InteractionInfo> interactions;
  std::vector<ReliabilityInfo> reliabilities;
};

/// Admission decision for one __prepare fan-out. Sampled from
/// DeployerParams::throttle every time a fan-out is (re)planned — the
/// initial send and each renotify retry — so a feedback controller (the
/// traffic layer's Ratekeeper) can slow migration sagas down while
/// user-facing latency is breaching its SLO, and release them when the
/// pressure clears.
struct PrepareThrottle {
  /// Max __prepare events per batch; 0 means unthrottled (one full fan-out).
  std::size_t max_batch = 0;
  /// Sim-time gap inserted between consecutive batches of the same fan-out.
  double inter_batch_delay_ms = 0.0;
};

/// Everything a target admin needs to reconstitute a component whose holder
/// died: factory type, capacity footprint, and a substitute state blob (see
/// DeployerComponent::effect_recovery).
struct RecoveredComponent {
  std::string type;
  double memory_kb = 0.0;
  std::vector<std::uint8_t> state;
};

class DeployerComponent final : public AdminComponent {
 public:
  struct DeployerParams {
    /// All hosts that run an AdminComponent (targets of __new_config).
    std::vector<model::HostId> admin_hosts;
    /// Deadline for PREPARE + COMMIT together: a round still uncommitted
    /// after this long aborts (in PREPARE) or rolls back (in COMMIT).
    double redeploy_timeout_ms = 30'000.0;
    /// Separate budget for the rollback phase; when the compensations
    /// themselves cannot be confirmed in time, the round closes as
    /// rollback_failed (the atomicity invariant then flags it).
    double rollback_timeout_ms = 30'000.0;
    /// Base interval for every retransmission: __prepare re-sends and the
    /// first per-migration config retry both start here.
    double renotify_interval_ms = 4'000.0;
    /// Retries after this many __prepare sends stop; the round aborts
    /// instead of spamming a partitioned network forever.
    int prepare_max_attempts = 6;
    /// Per-migration cap on targeted __new_config (re)notifications; an
    /// exhausted budget rolls the round back (or fails the rollback).
    int migration_max_attempts = 8;
    /// Per-migration retries back off geometrically, capped.
    double retry_backoff = 2.0;
    double retry_max_ms = 8'000.0;
    /// Graceful degradation: keep the migrations that completed when the
    /// round rolls back (close as `partial`) instead of compensating them.
    bool allow_partial = false;
    /// Per-host memory capacities for the plan preflight's capacity leg,
    /// mirroring AdminComponent::Params::memory_capacity_kb. Hosts absent
    /// from the map (the default) are unmodelled: only the structural
    /// checks fire for plans touching them.
    std::map<model::HostId, double> host_capacity_kb;
    /// Feedback hook consulted at every prepare fan-out. Unset (the
    /// default) keeps the classic behaviour: all participants receive
    /// their __prepare in one burst. When set, the returned throttle
    /// splits the fan-out into batches of `max_batch` spaced
    /// `inter_batch_delay_ms` apart; a phase change or a new epoch
    /// cancels the unsent remainder (the retry machinery re-fans-out).
    std::function<PrepareThrottle()> throttle;
  };

  DeployerComponent(model::HostId host, DistributionConnector& connector,
                    ComponentFactory& factory,
                    std::shared_ptr<EvtFrequencyMonitor> freq_monitor,
                    NetworkReliabilityMonitor* reliability_monitor,
                    Params admin_params, DeployerParams deployer_params);

  [[nodiscard]] std::string type_name() const override { return "__deployer"; }

  // --- monitoring aggregation -------------------------------------------------

  using ReportHandler = std::function<void(const HostReport&)>;
  void set_report_handler(ReportHandler handler) {
    report_handler_ = std::move(handler);
  }

  /// Heartbeat tap for failure detection (heal/): invoked with the sender
  /// host and the local receive time for every __monitor_report, before the
  /// report is decoded. Independent of the report handler, which DeSi's
  /// MiddlewareAdapter owns.
  using HeartbeatListener = std::function<void(model::HostId, double now_ms)>;
  void set_heartbeat_listener(HeartbeatListener listener) {
    heartbeat_listener_ = std::move(listener);
  }

  /// Liveness veto for plan admission: returns true when `host` is NOT a
  /// safe migration target (suspect or condemned). Consulted for every
  /// task target before a round opens — replacing the old fixed-timeout
  /// assumption that any host that ever reported stays placeable.
  using LivenessProbe = std::function<bool(model::HostId)>;
  void set_liveness_probe(LivenessProbe probe) {
    liveness_probe_ = std::move(probe);
  }

  /// Carries the custody version through on __location_update rebroadcasts
  /// so peer admins can apply custody precedence (heal/ anti-entropy). Off
  /// by default: a rebroadcast custody field also satisfies the admins'
  /// retained-copy cancellation check, so passing it through changes
  /// recovery-off behaviour. HealController arms this on attach.
  void set_custody_rebroadcast(bool on) noexcept {
    custody_rebroadcast_ = on;
  }

  // --- redeployment -------------------------------------------------------------

  /// Desired placement: component name -> target host.
  using TargetDeployment = std::vector<std::pair<std::string, model::HostId>>;
  /// `success` is true only for a fully committed round; aborted, rolled
  /// back, and partial rounds all report false (see `last_outcome()`).
  /// `migrations` counts components moved.
  using CompletionHandler =
      std::function<void(bool success, std::size_t migrations)>;

  /// Starts effecting `target`. Returns false (and does nothing) when a
  /// redeployment is already in flight. Completion is reported through
  /// `done` (which may fire immediately when nothing needs to move).
  bool effect_deployment(const TargetDeployment& target,
                         CompletionHandler done);

  /// Recovery variant of effect_deployment: migrations whose component is
  /// listed in `lost` cannot be requested from their (dead) source, so the
  /// COMMIT phase ships a __recover_component event — type + substitute
  /// state — to the target admin instead of a targeted __new_config. The
  /// round is otherwise ordinary: preflighted, capacity-voted via
  /// __prepare, throttled, epoch-stamped, retried, and recorded in
  /// round_history(). Recovery rounds always allow partial completion (a
  /// half-repaired fleet beats rolling healthy repairs back). Recovered
  /// components are stamped with a custody version one above the highest
  /// this deployer has heard announced, so a falsely-condemned holder's
  /// copy loses the ownership tiebreak when it rejoins.
  bool effect_recovery(const TargetDeployment& target,
                       const std::map<std::string, RecoveredComponent>& lost,
                       CompletionHandler done);

  /// Re-broadcasts `component`'s believed location (with its believed
  /// custody version) to the whole admin fleet. The heal controller calls
  /// this when a falsely-condemned host rejoins, so the returning host
  /// learns who owns the components it used to hold (anti-entropy push).
  void announce_location(const std::string& component);

  /// Highest custody version this deployer has heard announced for
  /// `component` (0 when never announced).
  [[nodiscard]] std::uint64_t custody_belief(const std::string& component)
      const {
    const auto it = custody_beliefs_.find(component);
    return it == custody_beliefs_.end() ? 0 : it->second;
  }

  /// Plans rejected because a task targeted a host the liveness probe
  /// flagged as unsafe (suspect/condemned).
  [[nodiscard]] std::uint64_t plans_rejected_liveness() const noexcept {
    return liveness_rejected_;
  }

  [[nodiscard]] bool redeployment_in_flight() const noexcept {
    return round_.active();
  }
  [[nodiscard]] std::uint64_t redeployments_completed() const noexcept {
    return completed_;
  }
  /// Acks/location updates carrying a wrong (or no) epoch while a
  /// redeployment was in flight. Nonzero means a stale message from an
  /// earlier round arrived late and was correctly not counted.
  [[nodiscard]] std::uint64_t stale_acks_ignored() const noexcept {
    return stale_acks_ignored_;
  }
  /// Every stale or duplicate migration ack discarded: the wrong-epoch
  /// acks above plus same-epoch duplicates that arrived after their
  /// migration (and the transferred copy's custody) was retired. The
  /// latter must never re-touch the location table.
  [[nodiscard]] std::uint64_t stale_acks_total() const noexcept {
    return stale_acks_total_;
  }
  [[nodiscard]] std::uint64_t current_epoch() const noexcept { return epoch_; }

  /// Outcome of the most recently closed round (kNone before any round).
  [[nodiscard]] TxnOutcome last_outcome() const noexcept {
    return last_outcome_;
  }
  /// Every closed round, in order; `back()` is the latest.
  [[nodiscard]] const std::vector<RoundRecord>& round_history() const noexcept {
    return history_;
  }
  /// Closed rounds that ended in abort, rollback, partial commit, or a
  /// failed rollback — anything short of a clean commit or a clean timeout
  /// report. difctl maps a nonzero count to its distinct exit code.
  [[nodiscard]] std::uint64_t rounds_rolled_back() const noexcept {
    return rounds_rolled_back_;
  }
  /// Plans rejected by the static preflight before any __prepare was sent.
  [[nodiscard]] std::uint64_t plans_rejected() const noexcept {
    return plans_rejected_;
  }
  /// The most recent preflight verdict (nullopt before any preflighted
  /// round). A rejected plan's report carries the error diagnostics.
  [[nodiscard]] const std::optional<check::CheckReport>& last_preflight()
      const noexcept {
    return last_preflight_;
  }

  void handle(const Event& event) override;

  /// Deployer crash semantics on top of AdminComponent::crash(): an
  /// in-flight redeployment round dies with the process and is reported as
  /// failed to its caller (the improvement loop must not wait forever on a
  /// completion that can no longer arrive). The epoch counter itself is
  /// modeled as stable storage and survives — recycling epoch values after
  /// a restart would let pre-crash stale acks satisfy post-crash rounds,
  /// exactly what the epoch stamp exists to prevent.
  void crash() override;

 private:
  /// Shared round-opening path for effect_deployment / effect_recovery;
  /// `lost` is null for ordinary redeployments.
  bool begin_round(const TargetDeployment& target, CompletionHandler done,
                   const std::map<std::string, RecoveredComponent>* lost);
  void handle_monitor_report(const Event& event);
  void handle_prepare_ack(const Event& event);
  void handle_migration_ack(const Event& event);
  void send_prepare();
  /// Sends targets[offset, offset+batch) their __prepare and schedules the
  /// next batch after `inter_batch_delay_ms` (guarded by epoch + phase).
  void send_prepare_batch(std::uint64_t epoch,
                          std::vector<std::uint8_t> plan_blob,
                          std::vector<model::HostId> targets,
                          std::size_t offset, std::size_t batch_size,
                          double inter_batch_delay_ms);
  void schedule_prepare_retry(std::uint64_t epoch);
  void schedule_round_deadline(std::uint64_t epoch);
  void start_commit();
  void abort_round();
  void begin_rollback(const std::string& reason);
  void broadcast_new_config();
  void send_task_config(const MigrationTask& task);
  void schedule_task_retry(std::uint64_t epoch, TxnPhase phase,
                           std::string component, double delay_ms);
  void check_round_completion();
  void close_round(TxnOutcome outcome);
  void finish(bool success);
  [[nodiscard]] obs::TraceLog::SpanId begin_phase_span(
      const char* name, std::int64_t extra, const char* extra_key);
  void end_phase_span(obs::TraceLog::SpanId& span, bool ok);
  /// Does `event` acknowledge a migration of the *current* epoch? Events
  /// without an epoch stamp, or stamped with a different epoch, are stale
  /// leftovers of an earlier round and must not be counted.
  [[nodiscard]] bool ack_epoch_matches(const Event& event);

  ReportHandler report_handler_;
  HeartbeatListener heartbeat_listener_;
  LivenessProbe liveness_probe_;
  bool custody_rebroadcast_ = false;
  DeployerParams deployer_params_;
  TxnRound round_;
  /// Substitute payloads for the current recovery round, by component name.
  /// Empty for ordinary rounds; cleared when the round closes.
  std::map<std::string, RecoveredComponent> recovery_payloads_;
  /// Custody version stamped on each in-flight recovered component.
  std::map<std::string, std::uint64_t> recovery_custody_;
  /// Highest custody version heard per component (from __location_update).
  std::map<std::string, std::uint64_t> custody_beliefs_;
  std::uint64_t liveness_rejected_ = 0;
  /// Static plan admission (check/plan_check.h) before any __prepare:
  /// structurally defective plans — duplicate/conflicting tasks, custody
  /// mismatches, targets outside the admin fleet, certain capacity vetoes —
  /// are rejected instead of burning a prepare round trip. Returns true
  /// when rejected (the round is then closed by abort_unopened_round).
  bool preflight_reject(const std::vector<MigrationTask>& plan,
                        const std::map<std::string, model::HostId>& checkpoint);
  /// Closes a round that never opened as `aborted`: nothing moved, so the
  /// declared placement is the checkpoint itself.
  void abort_unopened_round(
      const std::vector<MigrationTask>& plan,
      const std::map<std::string, model::HostId>& checkpoint);

  /// Component memory footprints gleaned from monitor reports; feeds the
  /// prepare plan so admins can reserve capacity for inbound components.
  std::map<std::string, double> component_memory_kb_;
  /// Believed per-host used memory, from the same monitor reports; feeds
  /// the plan preflight's capacity leg.
  std::map<model::HostId, double> host_memory_kb_;
  std::optional<check::CheckReport> last_preflight_;
  std::uint64_t plans_rejected_ = 0;
  TargetDeployment current_target_;
  CompletionHandler completion_;
  std::vector<RoundRecord> history_;
  TxnOutcome last_outcome_ = TxnOutcome::kNone;
  std::size_t migrations_requested_ = 0;
  std::uint64_t epoch_ = 0;  // stamps every protocol event of a round
  std::uint64_t completed_ = 0;
  std::uint64_t stale_acks_ignored_ = 0;
  std::uint64_t stale_acks_total_ = 0;
  std::uint64_t rounds_rolled_back_ = 0;
  std::uint64_t renotify_total_ = 0;  // per round: prepares + config retries
  int prepare_attempts_ = 0;
  double redeploy_start_ms_ = 0.0;
  obs::TraceLog::SpanId redeploy_span_ = obs::TraceLog::kInvalidSpan;
  obs::TraceLog::SpanId phase_span_ = obs::TraceLog::kInvalidSpan;
};

}  // namespace dif::prism
