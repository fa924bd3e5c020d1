// Fault-window overlap bookkeeping for FaultSchedule::compile.
//
// Two faults fighting over the same link field (or the same host's
// liveness) would make heal-time state restoration ambiguous — the second
// heal would resurrect the first fault's degraded values. A fault is only
// emitted when its [at, at+duration) window is free on its (field-group,
// target) lane; the compiler redraws a fault whose lane is taken.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "chaos/fault_schedule.h"

namespace dif::chaos {

/// Field groups for the ledger: partitions own the severed flag,
/// loss/noise own reliability, degradations own bandwidth+delay, crashes
/// own host liveness.
inline constexpr int kGroupSevered = 0;
inline constexpr int kGroupReliability = 1;
inline constexpr int kGroupThroughput = 2;
inline constexpr int kGroupLiveness = 3;

[[nodiscard]] inline int field_group(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition:
      return kGroupSevered;
    case FaultKind::kLossBurst:
    case FaultKind::kNoise:
      return kGroupReliability;
    case FaultKind::kDegrade:
      return kGroupThroughput;
    case FaultKind::kCrash:
      return kGroupLiveness;
  }
  return kGroupSevered;
}

class OverlapLedger {
 public:
  bool reserve(int group, std::size_t target, double at, double duration) {
    auto& lanes = busy_[{group, target}];
    const double hi = at + duration;
    for (const auto& [lo, existing_hi] : lanes)
      if (at < existing_hi && lo < hi) return false;
    lanes.emplace_back(at, hi);
    return true;
  }

 private:
  std::map<std::pair<int, std::size_t>, std::vector<std::pair<double, double>>>
      busy_;
};

}  // namespace dif::chaos
