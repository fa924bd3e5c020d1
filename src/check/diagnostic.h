// Structured diagnostics emitted by the static deployment-model analyzer
// (check/static_analyzer.h).
//
// The paper's Model and User Input components accept arbitrary parameter
// values and constraints, so a deployment specification can be silently
// broken — unsatisfiable constraints, pigeonhole-violating capacities,
// partitioned networks. Each defect the analyzer proves is reported as a
// Diagnostic: a stable rule id, a severity, the subject entities (by name),
// a human-readable message, and a fix hint. The same representation renders
// as text (difctl check), JSON (difctl check --json), and an exception
// payload (check/preflight.h).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace dif::check {

/// The analyzer's rule catalogue. Every rule proves its defect statically —
/// no algorithm runs, no deployment is required.
enum class Rule {
  /// A constraint or deployment references a component/host id the model
  /// does not contain.
  kDanglingReference,
  /// A stored parameter is outside its domain (reliability outside [0,1],
  /// negative size/frequency/bandwidth/delay/capacity, or NaN).
  kParamRange,
  /// A component's effective allow-list (allow-list minus forbidden hosts)
  /// is empty: no host may legally hold it.
  kLocationUnsat,
  /// The transitive collocation closure of the must-pairs contains a
  /// forbidden (separation) pair: the constraints are contradictory.
  kColocationConflict,
  /// The components of one collocation group have location constraints
  /// whose intersection is empty: the group has no common legal host.
  kGroupLocationUnsat,
  /// A collocation group's summed footprint exceeds the best legal host's
  /// capacity (memory, or CPU where every legal host models CPU), or the
  /// total component footprint exceeds the total host capacity.
  kCapacityPigeonhole,
  /// An interaction whose endpoints can never reach each other: no pair of
  /// allowed hosts lies in the same connected network partition.
  kNetworkPartition,
  /// Lint: a host with no physical link at all (unreachable by design).
  kIsolatedHost,
  /// Lint: a host that cannot hold even the smallest component.
  kUselessHost,
  /// In a model with several failure regions, a component whose legal
  /// hosts all sit in one region: a correlated region failure (the chaos
  /// layer's KillRegion workload) takes down every placement candidate at
  /// once.
  kRegionSpof,

  // --- Artifact audit rules (check/audit.h, check/resilience.h,
  // check/plan_check.h). These judge a *concrete* placement or migration
  // plan, not the specification. ---

  /// The audited placement leaves a component off every host (or does not
  /// cover the model's component set at all).
  kPlacementUnassigned,
  /// The audited placement puts a component on a host its location
  /// constraints (allow-list minus forbids) rule out.
  kPlacementLocation,
  /// A host's resident components oversubscribe its memory (or modelled
  /// CPU) capacity in the audited placement.
  kPlacementCapacity,
  /// The audited placement splits a must-collocate closure class across
  /// hosts, or puts a forbidden (separation) pair on one host.
  kPlacementColocation,
  /// Advisory: an interaction's endpoint hosts have no direct physical
  /// link (traffic must be store-and-forward mediated) or the pair's
  /// aggregate traffic oversubscribes the link's bandwidth.
  kPlacementBandwidth,
  /// k hosts failing together (k = 1: a single host) lose components or
  /// sever live interactions; the witness lists the failing host set.
  kResilienceSpof,
  /// One whole failure region going down loses components or severs
  /// interactions between the surviving hosts.
  kResilienceRegion,
  /// A migration plan names one component in two tasks (duplicate or
  /// contradictory targets).
  kPlanConflict,
  /// A plan task's declared source host disagrees with the believed
  /// current location: a stale custody view would tear the transfer.
  kPlanCustody,
  /// The plan's steady-state result oversubscribes a host whose capacity
  /// is modelled — the admins' prepare vote is certain to veto it.
  kPlanOverload,
  /// Advisory: source+destination double occupancy during the transfer
  /// window peaks above a host's capacity even though the steady state
  /// fits (the vote credits outbound moves, so the round would commit).
  kPlanTransientOverload,
  /// Advisory: a plan task whose source equals its destination.
  kPlanNoop,
};

enum class Severity { kWarning, kError };

/// Stable kebab-case rule id, e.g. "capacity-pigeonhole".
[[nodiscard]] std::string_view rule_id(Rule rule) noexcept;
[[nodiscard]] std::string_view to_string(Severity severity) noexcept;

/// A parameter value as diagnostic messages print it (stream default
/// formatting: "0.5", "1e+06", "nan").
[[nodiscard]] std::string fmt(double value);

/// One defect, proven statically.
struct Diagnostic {
  Rule rule;
  Severity severity = Severity::kError;
  /// Names of the entities involved ("component c3", "host h1", ...).
  std::vector<std::string> subjects;
  /// What is wrong, with concrete numbers where available.
  std::string message;
  /// How to repair the specification.
  std::string hint;
  /// Proof artifact, where the rule has one: for resilience rules the
  /// failing host set, for capacity rules the resident components. Host or
  /// component names, not prefixed subjects.
  std::vector<std::string> witness = {};
};

/// The analyzer's verdict over one model + constraint set.
class CheckReport {
 public:
  void add(Diagnostic diagnostic);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  [[nodiscard]] std::size_t error_count() const noexcept { return errors_; }
  [[nodiscard]] std::size_t warning_count() const noexcept {
    return warnings_;
  }
  /// No diagnostics at all (not even warnings).
  [[nodiscard]] bool clean() const noexcept { return diagnostics_.empty(); }
  /// No error-severity diagnostics (warnings allowed).
  [[nodiscard]] bool ok() const noexcept { return errors_ == 0; }

  /// True when some diagnostic was emitted by `rule`.
  [[nodiscard]] bool has(Rule rule) const noexcept;
  /// Count of diagnostics emitted by `rule`.
  [[nodiscard]] std::size_t count(Rule rule) const noexcept;

  /// One line per diagnostic plus a summary line, e.g.
  ///   error[location-unsat] component c2: ... (fix: ...)
  [[nodiscard]] std::string render_text() const;

  /// {"errors": N, "warnings": N, "diagnostics": [{rule, severity,
  ///  subjects, message, hint, witness}, ...]}; `witness` only when
  ///  non-empty.
  [[nodiscard]] util::json::Value to_json() const;

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
};

}  // namespace dif::check
