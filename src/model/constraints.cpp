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

std::string_view to_string(Violation::Kind kind) noexcept {
  switch (kind) {
    case Violation::Kind::kUnassigned: return "unassigned";
    case Violation::Kind::kLocation: return "location";
    case Violation::Kind::kMemory: return "memory";
    case Violation::Kind::kCpu: return "cpu";
    case Violation::Kind::kColocationRequired: return "colocation-required";
    case Violation::Kind::kColocationForbidden: return "colocation-forbidden";
    case Violation::Kind::kBandwidth: return "bandwidth";
  }
  return "?";
}

ConstraintChecker::ConstraintChecker(const DeploymentModel& model,
                                     const ConstraintSet& set, Options options)
    : model_(model),
      set_(set),
      options_(options),
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
  if (options_.check_memory &&
      model_.component(c).memory_size > host_free_memory(d, h))
    return false;
  if (options_.check_cpu && model_.host(h).cpu_capacity > 0.0) {
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
  if (options_.check_bandwidth) {
    // Traffic the placement adds per remote host, then per affected link:
    // already-routed traffic (excluding c's own interactions — c is the
    // one being (re)placed) plus the new demand must fit the bandwidth.
    const std::span<const Interaction> interactions = model_.interactions();
    std::vector<double> added(model_.host_count(), 0.0);
    for (const Interaction& ix : interactions) {
      if (ix.a != c && ix.b != c) continue;
      const ComponentId other = (ix.a == c) ? ix.b : ix.a;
      if (!d.is_assigned(other)) continue;
      const HostId oh = d.host_of(other);
      if (oh != h && oh < added.size())
        added[oh] += ix.frequency * ix.avg_event_size;
    }
    for (HostId oh = 0; oh < added.size(); ++oh) {
      if (added[oh] <= 0.0) continue;
      double load = added[oh];
      for (const Interaction& ix : interactions) {
        if (ix.a == c || ix.b == c) continue;
        if (!d.is_assigned(ix.a) || !d.is_assigned(ix.b)) continue;
        const HostId ha = d.host_of(ix.a), hb = d.host_of(ix.b);
        if ((ha == h && hb == oh) || (ha == oh && hb == h))
          load += ix.frequency * ix.avg_event_size;
      }
      if (load > model_.physical_link(h, oh).bandwidth) return false;
    }
  }
  return true;
}

void ConstraintChecker::collect(const Deployment& d,
                                std::vector<Violation>* out,
                                bool stop_at_first, bool* ok) const {
  *ok = true;
  const auto report = [&](Violation::Kind kind, std::string detail) {
    *ok = false;
    if (out) out->push_back({kind, std::move(detail)});
  };
  const std::size_t n = model_.component_count();
  const std::size_t k = model_.host_count();
  if (d.size() != n) {
    report(Violation::Kind::kUnassigned, "deployment size mismatch");
    return;
  }

  for (std::size_t c = 0; c < n; ++c) {
    const auto comp = static_cast<ComponentId>(c);
    const HostId h = d.host_of(comp);
    if (h == kNoHost) {
      report(Violation::Kind::kUnassigned,
             "component " + model_.component(comp).name + " unassigned");
      if (stop_at_first) return;
      continue;
    }
    if (h >= k) {
      report(Violation::Kind::kLocation,
             "component " + model_.component(comp).name + " on invalid host");
      if (stop_at_first) return;
      continue;
    }
    if (!host_allowed(comp, h)) {
      report(Violation::Kind::kLocation,
             "component " + model_.component(comp).name +
                 " not allowed on host " + model_.host(h).name);
      if (stop_at_first) return;
    }
  }

  if (options_.check_memory || options_.check_cpu) {
    std::vector<double> mem(k, 0.0), cpu(k, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
      const HostId h = d.host_of(static_cast<ComponentId>(c));
      if (h == kNoHost || h >= k) continue;
      mem[h] += model_.component(static_cast<ComponentId>(c)).memory_size;
      cpu[h] += model_.component(static_cast<ComponentId>(c)).cpu_load;
    }
    for (std::size_t h = 0; h < k; ++h) {
      const Host& host = model_.host(static_cast<HostId>(h));
      if (options_.check_memory && mem[h] > host.memory_capacity) {
        report(Violation::Kind::kMemory,
               "host " + host.name + " memory exceeded");
        if (stop_at_first) return;
      }
      if (options_.check_cpu && host.cpu_capacity > 0.0 &&
          cpu[h] > host.cpu_capacity) {
        report(Violation::Kind::kCpu, "host " + host.name + " CPU exceeded");
        if (stop_at_first) return;
      }
    }
  }

  for (const auto& [a, b] : set_.colocation_pairs()) {
    if (d.is_assigned(a) && d.is_assigned(b) && d.host_of(a) != d.host_of(b)) {
      report(Violation::Kind::kColocationRequired,
             model_.component(a).name + " and " + model_.component(b).name +
                 " must be collocated");
      if (stop_at_first) return;
    }
  }
  for (const auto& [a, b] : set_.anti_colocation_pairs()) {
    if (d.is_assigned(a) && d.is_assigned(b) && d.host_of(a) == d.host_of(b)) {
      report(Violation::Kind::kColocationForbidden,
             model_.component(a).name + " and " + model_.component(b).name +
                 " must not be collocated");
      if (stop_at_first) return;
    }
  }

  if (options_.check_bandwidth) {
    // Aggregate interaction traffic per physical link and compare with its
    // bandwidth (KB/s of events vs KB/s capacity).
    std::vector<double> traffic(k * k, 0.0);
    for (const Interaction& ix : model_.interactions()) {
      const HostId ha = d.host_of(ix.a), hb = d.host_of(ix.b);
      if (ha == kNoHost || hb == kNoHost || ha == hb) continue;
      const auto [lo, hi] = std::minmax(ha, hb);
      traffic[static_cast<std::size_t>(lo) * k + hi] +=
          ix.frequency * ix.avg_event_size;
    }
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        const double load = traffic[a * k + b];
        if (load <= 0.0) continue;
        const PhysicalLink& link = model_.physical_link(
            static_cast<HostId>(a), static_cast<HostId>(b));
        if (load > link.bandwidth) {
          report(Violation::Kind::kBandwidth,
                 "link " + model_.host(static_cast<HostId>(a)).name + "--" +
                     model_.host(static_cast<HostId>(b)).name +
                     " bandwidth exceeded");
          if (stop_at_first) return;
        }
      }
    }
  }
}

bool ConstraintChecker::feasible(const Deployment& d) const {
  bool ok = false;
  collect(d, nullptr, /*stop_at_first=*/true, &ok);
  return ok;
}

std::vector<Violation> ConstraintChecker::violations(
    const Deployment& d) const {
  std::vector<Violation> out;
  bool ok = false;
  collect(d, &out, /*stop_at_first=*/false, &ok);
  return out;
}

}  // namespace dif::model
