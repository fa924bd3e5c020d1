// Deployment constraints: the framework's User Input component supplies
// these at design time (Section 3.1): location constraints (which hosts a
// component may be deployed on) and collocation constraints (components that
// must / must not share a host); the checker additionally enforces resource
// constraints (host memory/CPU) from the model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "model/deployment.h"
#include "model/ids.h"

namespace dif::model {

class DeploymentModel;

/// Architect-specified constraints, independent of any model instance.
class ConstraintSet {
 public:
  /// Location: restricts `c` to exactly the given hosts (replaces any prior
  /// allow-list for `c`).
  void allow_only(ComponentId c, std::vector<HostId> hosts);

  /// Location: forbids deploying `c` on `h`.
  void forbid_host(ComponentId c, HostId h);

  /// Pins `c` to `h` (an allow-list of one).
  void pin(ComponentId c, HostId h);

  /// Collocation: `a` and `b` must share a host.
  void require_colocation(ComponentId a, ComponentId b);

  /// Collocation: `a` and `b` must be on different hosts.
  void forbid_colocation(ComponentId a, ComponentId b);

  /// True iff location rules permit `c` on `h`.
  [[nodiscard]] bool host_allowed(ComponentId c, HostId h) const;

  [[nodiscard]] const std::vector<std::pair<ComponentId, ComponentId>>&
  colocation_pairs() const noexcept {
    return must_pairs_;
  }
  [[nodiscard]] const std::vector<std::pair<ComponentId, ComponentId>>&
  anti_colocation_pairs() const noexcept {
    return anti_pairs_;
  }

  [[nodiscard]] bool empty() const noexcept {
    return allowed_.empty() && forbidden_.empty() && must_pairs_.empty() &&
           anti_pairs_.empty();
  }

  /// Raw rule accessors (serialization, views).
  [[nodiscard]] const std::vector<std::pair<ComponentId, std::vector<HostId>>>&
  allow_lists() const noexcept {
    return allowed_;
  }
  [[nodiscard]] const std::vector<std::pair<ComponentId, HostId>>&
  forbidden_hosts() const noexcept {
    return forbidden_;
  }

 private:
  /// component -> explicit allow-list (absent = all hosts allowed)
  std::vector<std::pair<ComponentId, std::vector<HostId>>> allowed_;
  /// (component, host) forbidden pairs
  std::vector<std::pair<ComponentId, HostId>> forbidden_;
  std::vector<std::pair<ComponentId, ComponentId>> must_pairs_;
  std::vector<std::pair<ComponentId, ComponentId>> anti_pairs_;
};

/// Compiles the location rules of `set` into component-major allowed-host
/// bitmask rows: row c spans (hosts + 63) / 64 words, and bit h of row c is
/// set iff set.host_allowed(c, h) for c < components and h < hosts. Bits past
/// the last host are clear. Costs O(components * hosts / 64 + rules) instead
/// of components * hosts calls into the O(rules) host_allowed. Rules naming
/// components >= `components` or hosts >= `hosts` are ignored; hosts == 0
/// yields empty rows.
[[nodiscard]] std::vector<std::uint64_t> allowed_host_masks(
    const ConstraintSet& set, std::size_t components, std::size_t hosts);

/// Compiled, model-bound constraint evaluator used by all algorithms.
///
/// Compilation flattens the ConstraintSet into per-component host bitmasks so
/// the hot path (`host_allowed`) is O(1). The checker also enforces the
/// resource constraints the model carries: component memory vs host memory,
/// and CPU load vs CPU capacity on hosts that model CPU. Link bandwidth is
/// not a placement constraint here, as in the paper's Section 5 scenario;
/// check::PlacementAuditor reports it as an advisory finding. The auditor
/// checks the same placement rules and explains each violation.
class ConstraintChecker {
 public:
  /// The model and set must outlive the checker.
  ConstraintChecker(const DeploymentModel& model, const ConstraintSet& set);

  /// O(1): do location rules allow component `c` on host `h`?
  [[nodiscard]] bool host_allowed(ComponentId c, HostId h) const {
    return (allowed_masks_[c * words_per_row_ + h / 64] >> (h % 64)) & 1u;
  }

  /// Full feasibility test for a complete deployment; stops at the first
  /// violated rule.
  [[nodiscard]] bool feasible(const Deployment& d) const;

  /// Memory left on `h` under deployment `d` (may be negative if violated).
  [[nodiscard]] double host_free_memory(const Deployment& d, HostId h) const;

  /// Incremental check used by constructive algorithms: may `c` be placed on
  /// `h` given the (possibly partial) deployment `d`? Checks location,
  /// memory/CPU headroom, and collocation against already-placed
  /// components.
  [[nodiscard]] bool placement_ok(const Deployment& d, ComponentId c,
                                  HostId h) const;

  [[nodiscard]] const DeploymentModel& model() const noexcept {
    return model_;
  }
  [[nodiscard]] const ConstraintSet& constraint_set() const noexcept {
    return set_;
  }

 private:
  const DeploymentModel& model_;
  const ConstraintSet& set_;
  std::size_t words_per_row_;
  /// component-major bitmask matrix: bit h of row c == host h allowed for c.
  std::vector<std::uint64_t> allowed_masks_;
};

}  // namespace dif::model
