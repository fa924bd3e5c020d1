// k-resilience prover: which components and interactions lose service when
// k hosts — or one whole failure region — go down together.
//
// The chaos layer (src/chaos) *observes* what faults do to a running
// system; this prover answers the same question statically, from the model
// and a concrete placement, before anything runs:
//
//   resilience-spof    a host set of size ≤ k whose simultaneous failure
//                      loses components or severs live interactions. k = 1
//                      is a per-host sweep (resident components plus
//                      articulation-point partition analysis of the host
//                      graph); k ≥ 2 adds a minimum vertex cut per
//                      interaction (unit-capacity max-flow over the split
//                      host graph), whose cut set is the witness.
//   resilience-region  one failure region (DeploymentModel regions, PR 6)
//                      going down loses components or severs interactions
//                      between the survivors.
//
// Every diagnostic carries the failing host set as its witness, so a
// consumer (or a test) can independently replay the failure and confirm the
// loss. All findings are warnings: an unreplicated model is degraded, not
// invalid.
#pragma once

#include <cstddef>

#include "check/diagnostic.h"

namespace dif::model {
class Deployment;
class DeploymentModel;
}  // namespace dif::model

namespace dif::check {

struct ResilienceOptions {
  /// Largest simultaneous host-failure set proven against. 1 sweeps single
  /// hosts; k ≥ 2 adds per-interaction minimum vertex cuts of size ≤ k.
  /// 0 disables host-failure analysis entirely.
  std::size_t max_failures = 1;
  /// Whole-region failure analysis (inactive on models declaring fewer
  /// than two regions).
  bool regions = true;
  /// Cap on emitted diagnostics; proving continues past it but further
  /// findings collapse into one summary diagnostic.
  std::size_t max_diagnostics = 64;
};

class ResilienceProver {
 public:
  explicit ResilienceProver(ResilienceOptions options = {})
      : options_(options) {}

  [[nodiscard]] CheckReport prove(const model::DeploymentModel& model,
                                  const model::Deployment& deployment) const;

  [[nodiscard]] const ResilienceOptions& options() const noexcept {
    return options_;
  }

 private:
  ResilienceOptions options_;
};

}  // namespace dif::check
