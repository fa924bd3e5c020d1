// The per-interaction term of every decomposable objective, defined once.
//
// Availability, latency, and communication cost are sums over interactions
// of a term that depends only on the interaction's frequency and event size
// and on the two hosts carrying its endpoints. interaction_term() is that
// term, and every evaluator, bid, vote and bound that needs one calls it, so
// each formula exists once. It is an inline template on the objective kind so
// the incremental evaluator's per-move loop keeps the kind dispatch hoisted
// out and the term inlined.
#pragma once

#include "model/deployment_model.h"

namespace dif::model {

/// The objectives whose value is a sum of interaction_term()s.
enum class TermKind { kAvailability, kLatency, kCommCost };

/// Link lookups the kernel accepts: the model's range-checked accessor, or
/// the unchecked sparse view hot loops hold (a row search per lookup).
inline const PhysicalLink& link_between(const DeploymentModel& m, HostId a,
                                        HostId b) {
  return m.physical_link(a, b);
}
inline const PhysicalLink& link_between(const PhysicalLinkTable& table,
                                        HostId a, HostId b) {
  return table.at(a, b);
}

/// Contribution of one interaction (`frequency` events/s of `event_size` KB)
/// whose endpoints sit on hosts `ha` and `hb`; either may be kNoHost:
///  * availability: frequency * reliability(ha, hb). A local pair counts
///    with reliability 1, an unassigned endpoint with 0.
///  * latency (ms/s): frequency * (delay + 1000 * event_size / bandwidth)
///    for a remote pair, 0 for a local one. An unassigned endpoint or a
///    bandwidth-0 link is charged frequency * penalty_ms.
///  * communication cost (KB/s): frequency * event_size unless both
///    endpoints share a host.
/// `links` is read only for two distinct assigned hosts.
template <TermKind kKind, typename Links>
[[nodiscard]] inline double interaction_term(const Links& links,
                                             double frequency,
                                             double event_size, HostId ha,
                                             HostId hb,
                                             double penalty_ms = 0.0) {
  const bool unassigned = ha == kNoHost || hb == kNoHost;
  if constexpr (kKind == TermKind::kAvailability) {
    if (unassigned) return 0.0;
    if (ha == hb) return frequency;
    return frequency * link_between(links, ha, hb).reliability;
  } else if constexpr (kKind == TermKind::kLatency) {
    if (unassigned) return frequency * penalty_ms;
    if (ha == hb) return 0.0;
    const PhysicalLink& link = link_between(links, ha, hb);
    if (link.bandwidth <= 0.0) return frequency * penalty_ms;
    return frequency * (link.delay_ms + 1000.0 * event_size / link.bandwidth);
  } else {
    return (unassigned || ha != hb) ? frequency * event_size : 0.0;
  }
}

}  // namespace dif::model
