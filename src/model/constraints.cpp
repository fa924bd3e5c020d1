#include "model/constraints.h"

#include <algorithm>
#include <stdexcept>

#include "model/deployment_model.h"

namespace dif::model {

void ConstraintSet::allow_only(ComponentId c, std::vector<HostId> hosts) {
  if (hosts.empty())
    throw std::invalid_argument("ConstraintSet: empty allow-list");
  const auto it =
      std::find_if(allowed_.begin(), allowed_.end(),
                   [c](const auto& entry) { return entry.first == c; });
  if (it != allowed_.end()) {
    it->second = std::move(hosts);
  } else {
    allowed_.emplace_back(c, std::move(hosts));
  }
}

void ConstraintSet::forbid_host(ComponentId c, HostId h) {
  if (!std::count(forbidden_.begin(), forbidden_.end(), std::pair{c, h}))
    forbidden_.emplace_back(c, h);
}

void ConstraintSet::pin(ComponentId c, HostId h) { allow_only(c, {h}); }

void ConstraintSet::require_colocation(ComponentId a, ComponentId b) {
  if (a == b) throw std::invalid_argument("ConstraintSet: self colocation");
  must_pairs_.emplace_back(std::min(a, b), std::max(a, b));
}

void ConstraintSet::forbid_colocation(ComponentId a, ComponentId b) {
  if (a == b)
    throw std::invalid_argument("ConstraintSet: self anti-colocation");
  anti_pairs_.emplace_back(std::min(a, b), std::max(a, b));
}

bool ConstraintSet::host_allowed(ComponentId c, HostId h) const {
  for (const auto& [comp, host] : forbidden_)
    if (comp == c && host == h) return false;
  const auto it =
      std::find_if(allowed_.begin(), allowed_.end(),
                   [c](const auto& entry) { return entry.first == c; });
  if (it == allowed_.end()) return true;
  return std::count(it->second.begin(), it->second.end(), h) > 0;
}

std::vector<std::uint64_t> allowed_host_masks(const ConstraintSet& set,
                                              std::size_t n, std::size_t k) {
  const std::size_t words = (k + 63) / 64;
  // Default-allow fill, then direct rule application: the difference
  // between milliseconds and minutes at fleet scale (10k components x 1k
  // hosts x dozens of location rules).
  std::vector<std::uint64_t> masks(n * words, ~0ULL);
  if (k % 64 != 0) {
    // Mask off the bits past the last host so popcount-style consumers and
    // h >= k queries see "not allowed".
    const std::uint64_t last_word = (1ULL << (k % 64)) - 1;
    for (std::size_t c = 0; c < n; ++c)
      masks[c * words + words - 1] = last_word;
  }
  for (const auto& [c, allowed] : set.allow_lists()) {
    if (c >= n) continue;
    std::fill_n(masks.begin() + static_cast<std::ptrdiff_t>(c * words), words,
                0ULL);
    for (const HostId h : allowed)
      if (h < k) masks[c * words + h / 64] |= 1ULL << (h % 64);
  }
  // Forbidden pairs win over allow-lists, matching ConstraintSet semantics.
  for (const auto& [c, h] : set.forbidden_hosts())
    if (c < n && h < k) masks[c * words + h / 64] &= ~(1ULL << (h % 64));
  return masks;
}

ConstraintChecker::ConstraintChecker(const DeploymentModel& model,
                                     const ConstraintSet& set)
    : model_(model),
      set_(set),
      words_per_row_((model.host_count() + 63) / 64) {
  if (model.host_count() == 0)
    throw std::invalid_argument("ConstraintChecker: no hosts");
  allowed_masks_ = allowed_host_masks(set, model.component_count(),
                                      model.host_count());
}

double ConstraintChecker::host_free_memory(const Deployment& d,
                                           HostId h) const {
  double used = 0.0;
  for (std::size_t c = 0; c < d.size(); ++c)
    if (d.host_of(static_cast<ComponentId>(c)) == h)
      used += model_.component(static_cast<ComponentId>(c)).memory_size;
  return model_.host(h).memory_capacity - used;
}

bool ConstraintChecker::placement_ok(const Deployment& d, ComponentId c,
                                     HostId h) const {
  if (!host_allowed(c, h)) return false;
  if (model_.component(c).memory_size > host_free_memory(d, h)) return false;
  if (model_.host(h).cpu_capacity > 0.0) {
    double load = model_.component(c).cpu_load;
    for (std::size_t other = 0; other < d.size(); ++other)
      if (d.host_of(static_cast<ComponentId>(other)) == h)
        load += model_.component(static_cast<ComponentId>(other)).cpu_load;
    if (load > model_.host(h).cpu_capacity) return false;
  }
  for (const auto& [a, b] : set_.colocation_pairs()) {
    const ComponentId other = (a == c) ? b : (b == c) ? a : c;
    if (other == c) continue;
    if (d.is_assigned(other) && d.host_of(other) != h) return false;
  }
  for (const auto& [a, b] : set_.anti_colocation_pairs()) {
    const ComponentId other = (a == c) ? b : (b == c) ? a : c;
    if (other == c) continue;
    if (d.is_assigned(other) && d.host_of(other) == h) return false;
  }
  return true;
}

bool ConstraintChecker::feasible(const Deployment& d) const {
  const std::size_t n = model_.component_count();
  const std::size_t k = model_.host_count();
  if (d.size() != n) return false;
  std::vector<double> mem(k, 0.0), cpu(k, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const auto comp = static_cast<ComponentId>(c);
    const HostId h = d.host_of(comp);  // kNoHost (unassigned) is >= k
    if (h >= k || !host_allowed(comp, h)) return false;
    mem[h] += model_.component(comp).memory_size;
    cpu[h] += model_.component(comp).cpu_load;
  }
  for (std::size_t h = 0; h < k; ++h) {
    const Host& host = model_.host(static_cast<HostId>(h));
    if (mem[h] > host.memory_capacity) return false;
    if (host.cpu_capacity > 0.0 && cpu[h] > host.cpu_capacity) return false;
  }
  for (const auto& [a, b] : set_.colocation_pairs())
    if (d.is_assigned(a) && d.is_assigned(b) && d.host_of(a) != d.host_of(b))
      return false;
  for (const auto& [a, b] : set_.anti_colocation_pairs())
    if (d.is_assigned(a) && d.is_assigned(b) && d.host_of(a) == d.host_of(b))
      return false;
  return true;
}

}  // namespace dif::model
