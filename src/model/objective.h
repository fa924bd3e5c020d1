// Objective functions over deployment architectures.
//
// Per the paper, each objective is formally specified and is either an
// optimization problem (maximize availability, minimize latency) or part of a
// constraint-satisfaction problem (handled by ConstraintChecker). Objectives
// are pluggable: algorithms are written against the abstract interface, and
// new concerns (security, energy, ...) are added by subclassing — see
// SecurityObjective for a property-map-driven example.
//
// Availability, latency, and communication cost are sums of per-interaction
// terms; each term formula is written once, in model/interaction_term.h, and
// their evaluate() bodies are single passes over that kernel.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model/deployment.h"
#include "model/deployment_model.h"

namespace dif::model {

enum class Direction { kMaximize, kMinimize };

/// An objective that scores a complete deployment of a model.
class Objective {
 public:
  virtual ~Objective() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual Direction direction() const = 0;

  /// Raw objective value (availability fraction, latency in ms/s, ...).
  [[nodiscard]] virtual double evaluate(const DeploymentModel& model,
                                        const Deployment& d) const = 0;

  /// Normalized value in [0, 1], higher-is-better regardless of direction.
  /// Lets WeightedObjective and analyzers compare unlike objectives.
  [[nodiscard]] virtual double score(const DeploymentModel& model,
                                     const Deployment& d) const;

  /// Direction-aware comparison: is raw value `candidate` strictly better
  /// than `incumbent`?
  [[nodiscard]] bool improves(double candidate, double incumbent) const {
    return direction() == Direction::kMaximize ? candidate > incumbent
                                               : candidate < incumbent;
  }

  /// The worst possible raw value for this direction (seed for searches).
  [[nodiscard]] double worst() const;
};

/// Score transform of the minimized objectives (latency, communication
/// cost): 1 / (1 + raw / reference_scale), in (0, 1] and monotonically
/// decreasing in the raw value. PairwiseDecomposition::score_of applies the
/// same transform.
[[nodiscard]] inline double cost_score(double raw_value,
                                       double reference_scale) {
  return 1.0 / (1.0 + raw_value / reference_scale);
}

/// Availability (paper Section 5.1, definition from companion TR [12]):
///   A(d) = sum_ij freq(ci,cj) * rel(d(ci), d(cj)) / sum_ij freq(ci,cj)
/// Local interactions count with reliability 1; disconnected host pairs with
/// 0. A deployment placing frequent interactions locally or on reliable links
/// therefore scores higher. Result is in [0, 1]; an interaction-free model
/// scores 1 (nothing can fail).
class AvailabilityObjective final : public Objective {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "availability";
  }
  [[nodiscard]] Direction direction() const override {
    return Direction::kMaximize;
  }
  [[nodiscard]] double evaluate(const DeploymentModel& model,
                                const Deployment& d) const override;
};

/// Expected communication latency incurred per second of operation (ms/s):
///   L(d) = sum_ij freq * [ delay(ha,hb) + 1000 * size / bandwidth(ha,hb) ]
/// over remote pairs; local interactions contribute 0; interactions across
/// disconnected hosts are charged `disconnected_penalty_ms` each.
class LatencyObjective final : public Objective {
 public:
  explicit LatencyObjective(double disconnected_penalty_ms = 10'000.0,
                            double reference_scale = 1'000.0)
      : penalty_ms_(disconnected_penalty_ms), scale_(reference_scale) {}

  [[nodiscard]] std::string_view name() const override { return "latency"; }
  [[nodiscard]] Direction direction() const override {
    return Direction::kMinimize;
  }
  [[nodiscard]] double evaluate(const DeploymentModel& model,
                                const Deployment& d) const override;
  /// cost_score(L, reference_scale) — monotonically decreasing in latency.
  [[nodiscard]] double score(const DeploymentModel& model,
                             const Deployment& d) const override {
    return cost_score(evaluate(model, d), scale_);
  }

  [[nodiscard]] double disconnected_penalty_ms() const noexcept {
    return penalty_ms_;
  }
  /// Normalization scale used by score() — exposed so the incremental
  /// evaluator can reproduce the score transform from a raw value.
  [[nodiscard]] double reference_scale() const noexcept { return scale_; }

 private:
  double penalty_ms_;
  double scale_;
};

/// Total remote traffic volume (KB/s) — the criterion minimized by I5 [1]
/// and Coign [7]:  C(d) = sum over remote pairs of freq * size.
class CommunicationCostObjective final : public Objective {
 public:
  explicit CommunicationCostObjective(double reference_scale = 1'000.0)
      : scale_(reference_scale) {}

  [[nodiscard]] std::string_view name() const override { return "comm-cost"; }
  [[nodiscard]] Direction direction() const override {
    return Direction::kMinimize;
  }
  [[nodiscard]] double evaluate(const DeploymentModel& model,
                                const Deployment& d) const override;
  [[nodiscard]] double score(const DeploymentModel& model,
                             const Deployment& d) const override {
    return cost_score(evaluate(model, d), scale_);
  }
  [[nodiscard]] double reference_scale() const noexcept { return scale_; }

 private:
  double scale_;
};

/// Extensibility demonstration (the paper's "improve a distributed system's
/// security" example): the frequency-weighted fraction of interactions whose
/// carrying link meets the interaction's required security level.
///
/// Reads the extensible properties "security" (on physical links, default 0;
/// local interactions are fully secure) and "required_security" (on logical
/// links, default 0).
class SecurityObjective final : public Objective {
 public:
  [[nodiscard]] std::string_view name() const override { return "security"; }
  [[nodiscard]] Direction direction() const override {
    return Direction::kMaximize;
  }
  [[nodiscard]] double evaluate(const DeploymentModel& model,
                                const Deployment& d) const override;
};

/// Weighted combination of normalized objective scores; the analyzer's tool
/// for multi-objective trade-offs. evaluate() returns
/// sum_i weight_i * score_i(d) / sum_i weight_i, in [0, 1].
class WeightedObjective final : public Objective {
 public:
  struct Term {
    std::shared_ptr<const Objective> objective;
    double weight = 1.0;
  };

  explicit WeightedObjective(std::vector<Term> terms);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] Direction direction() const override {
    return Direction::kMaximize;
  }
  [[nodiscard]] double evaluate(const DeploymentModel& model,
                                const Deployment& d) const override;

  [[nodiscard]] const std::vector<Term>& terms() const noexcept {
    return terms_;
  }

 private:
  std::vector<Term> terms_;
  std::string name_;
  double total_weight_;
};

}  // namespace dif::model
