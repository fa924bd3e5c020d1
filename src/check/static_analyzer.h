// Rule-based static analyzer over DeploymentModel + ConstraintSet.
//
// Dearle et al.'s constraint-based deployment framework (arXiv:1006.4733)
// validates a deployment specification *before* handing it to a solver; this
// analyzer is that correctness layer for the paper's Model and User Input
// components. Every rule proves its defect from the specification alone —
// without running any algorithm — so a broken model is reported as a set of
// actionable diagnostics instead of surfacing as "no feasible deployment
// found" deep inside a search:
//
//   dangling-reference    constraints naming entities the model lacks
//   param-range           parameters outside their domain (incl. NaN)
//   location-unsat        allow-list minus forbidden hosts is empty
//   colocation-conflict   must-collocate closure hits a separation pair
//   group-location-unsat  a collocation group has no common legal host
//   capacity-pigeonhole   group footprint exceeds every legal host
//   network-partition     an interaction no host pair can ever carry
//   isolated-host (lint)  host with no physical link
//   useless-host (lint)   host too small for every component
//
// The full rule catalogue — these spec rules plus the artifact audit rules
// of check/audit.h, check/resilience.h, and check/plan_check.h — is
// documented with defect examples in docs/checking.md.
//
// Complexity: the rules read what the model and constraint set store, not
// every id pair: O(n + k + stored physical and logical links + rules) plus
// bitmask rows of n·k/64 words. param-range, network-partition and
// isolated-host walk the model's sparse link store (for_each_physical_link
// and the per-host rows of DeploymentModel::physical_neighbors), which
// holds only the stored links. region-spof still tests up to k allow bits
// per component confined to one region. At 1024 hosts x 2048 components
// (~8 links per host) the pre-flight rule set costs ~3 ms, down from
// ~6.7 ms while param-range and the network rules streamed a dense k×k
// matrix; param-range is the costliest rule at ~0.9 ms. The preflight hook
// (preflight.h) runs it on every algorithm entry, where it is under a tenth
// of a warm-started decision.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/diagnostic.h"

namespace dif::model {
class ConstraintSet;
class DeploymentModel;
}  // namespace dif::model

namespace dif::check {

/// Every rule runs by default. preflight_options() (see preflight.h) turns
/// off the two that are legitimate transient states or advice at run time.
struct CheckOptions {
  /// network-partition: an interaction no host pair can ever carry.
  bool network_reachability = true;
  /// Warning-severity advisory rules (isolated-host, useless-host).
  bool lints = true;
};

/// Shared rule context over one (model, constraint set) pair: the
/// per-component allowed-host bitmask rows (model::allowed_host_masks) and
/// the must-collocate union-find closure, built once up front in
/// O(n·k/64 + n + rules). The spec rules (StaticAnalyzer) and the artifact
/// auditors (check/audit.h, check/plan_check.h) reuse one build instead of
/// reconstructing the maps per rule or per pass.
///
/// The context borrows the model and constraint set; both must outlive it,
/// and it must be rebuilt after either mutates.
class AnalysisContext {
 public:
  AnalysisContext(const model::DeploymentModel& model,
                  const model::ConstraintSet& set);

  [[nodiscard]] const model::DeploymentModel& model() const noexcept {
    return *model_;
  }
  [[nodiscard]] const model::ConstraintSet& constraints() const noexcept {
    return *set_;
  }
  /// Component / host counts captured at build time.
  [[nodiscard]] std::size_t components() const noexcept { return n_; }
  [[nodiscard]] std::size_t hosts() const noexcept { return k_; }

  /// Location rules (allow-list minus forbids) permit component c on host h.
  /// Valid only for c < components() and h < hosts().
  [[nodiscard]] bool allowed(std::size_t c, std::size_t h) const {
    return (rows_[c * words_ + h / 64] >> (h % 64)) & 1u;
  }
  /// Component c's allow-mask row: hosts() bits, word-packed little-endian,
  /// tail bits clear. Valid only for c < components().
  [[nodiscard]] std::span<const std::uint64_t> allowed_row(
      std::size_t c) const {
    return {rows_.data() + c * words_, words_};
  }
  /// Number of legal hosts for component c.
  [[nodiscard]] std::size_t allowed_count(std::size_t c) const;
  /// AND of the allowed-host rows of every component in `members`
  /// (word-packed little-endian bits, tail bits beyond hosts() masked off).
  [[nodiscard]] std::vector<std::uint64_t> allowed_intersection(
      const std::vector<std::size_t>& members) const;

  /// Representative of c's must-collocate closure class.
  [[nodiscard]] std::size_t group_root(std::size_t c) const {
    return root_[c];
  }
  /// The closure classes, singletons included (every component appears in
  /// exactly one class).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& groups()
      const noexcept {
    return groups_;
  }

  /// "component <name>" / "host <name>" diagnostic subject strings.
  [[nodiscard]] std::string component_subject(std::size_t c) const;
  [[nodiscard]] std::string host_subject(std::size_t h) const;

 private:
  const model::DeploymentModel* model_;
  const model::ConstraintSet* set_;
  std::size_t n_ = 0;      // components
  std::size_t k_ = 0;      // hosts
  std::size_t words_ = 0;  // 64-bit words per allow-mask row
  std::vector<std::uint64_t> rows_;
  std::vector<std::size_t> root_;
  std::vector<std::vector<std::size_t>> groups_;
};

class StaticAnalyzer {
 public:
  explicit StaticAnalyzer(CheckOptions options = {}) : options_(options) {}

  /// Runs every enabled rule; never throws on model defects (that is the
  /// point), only on allocation failure.
  [[nodiscard]] CheckReport analyze(const model::DeploymentModel& model,
                                    const model::ConstraintSet& set) const;

  /// Same rules over a prebuilt shared context, so one context build can
  /// serve the spec rules and the artifact auditors.
  [[nodiscard]] CheckReport analyze(const AnalysisContext& context) const;

  [[nodiscard]] const CheckOptions& options() const noexcept {
    return options_;
  }

 private:
  CheckOptions options_;
};

/// Convenience: StaticAnalyzer(options).analyze(model, set).
[[nodiscard]] CheckReport run_checks(const model::DeploymentModel& model,
                                     const model::ConstraintSet& set,
                                     const CheckOptions& options = {});

}  // namespace dif::check
