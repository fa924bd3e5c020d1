#include "check/static_analyzer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "model/constraints.h"
#include "model/deployment_model.h"

namespace dif::check {

namespace {

using model::ComponentId;
using model::ConstraintSet;
using model::DeploymentModel;
using model::HostId;

/// Union-find with path halving over component ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

bool mask_bit(const std::vector<std::uint64_t>& mask, std::size_t h) {
  return (mask[h / 64] >> (h % 64)) & 1u;
}

std::size_t mask_count(const std::vector<std::uint64_t>& mask) {
  std::size_t total = 0;
  for (const std::uint64_t w : mask)
    total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

/// Rule context shared by all rule functions: the prebuilt AnalysisContext
/// plus this run's report.
struct Ctx {
  const AnalysisContext& a;
  const DeploymentModel& m;
  const ConstraintSet& set;
  CheckReport& report;
  std::size_t n;  // components
  std::size_t k;  // hosts
};

void check_dangling(Ctx& ctx) {
  const auto dangling_comp = [&](std::size_t c, std::string_view where) {
    if (c < ctx.n) return false;
    ctx.report.add({Rule::kDanglingReference,
                    Severity::kError,
                    {ctx.a.component_subject(c)},
                    std::string(where) + " references component id " +
                        std::to_string(c) + " but the model has " +
                        std::to_string(ctx.n) + " components",
                    "remove the constraint or add the missing component"});
    return true;
  };
  const auto dangling_host = [&](std::size_t h, std::string_view where) {
    if (h < ctx.k) return false;
    ctx.report.add({Rule::kDanglingReference,
                    Severity::kError,
                    {ctx.a.host_subject(h)},
                    std::string(where) + " references host id " +
                        std::to_string(h) + " but the model has " +
                        std::to_string(ctx.k) + " hosts",
                    "remove the constraint or add the missing host"});
    return true;
  };
  for (const auto& [c, hosts] : ctx.set.allow_lists()) {
    dangling_comp(c, "location allow-list");
    for (const HostId h : hosts) dangling_host(h, "location allow-list");
  }
  for (const auto& [c, h] : ctx.set.forbidden_hosts()) {
    dangling_comp(c, "location forbid rule");
    dangling_host(h, "location forbid rule");
  }
  for (const auto& [a, b] : ctx.set.colocation_pairs()) {
    dangling_comp(a, "collocation constraint");
    dangling_comp(b, "collocation constraint");
  }
  for (const auto& [a, b] : ctx.set.anti_colocation_pairs()) {
    dangling_comp(a, "separation constraint");
    dangling_comp(b, "separation constraint");
  }
}

void check_param_ranges(Ctx& ctx) {
  const auto bad_nonneg = [](double v) { return !(v >= 0.0) || std::isinf(v); };
  const auto bad_unit = [](double v) { return !(v >= 0.0 && v <= 1.0); };
  const auto report = [&](std::string subject, std::string message,
                          std::string hint) {
    ctx.report.add({Rule::kParamRange,
                    Severity::kError,
                    {std::move(subject)},
                    std::move(message),
                    std::move(hint)});
  };

  for (std::size_t h = 0; h < ctx.k; ++h) {
    const model::Host& host = ctx.m.host(static_cast<HostId>(h));
    if (bad_nonneg(host.memory_capacity))
      report(ctx.a.host_subject(h),
             "memory capacity " + fmt(host.memory_capacity) +
                 " is not a finite non-negative number",
             "set a non-negative memory capacity in KB");
    if (bad_nonneg(host.cpu_capacity))
      report(ctx.a.host_subject(h),
             "CPU capacity " + fmt(host.cpu_capacity) +
                 " is not a finite non-negative number",
             "set a non-negative CPU capacity (0 = not modelled)");
  }
  for (std::size_t c = 0; c < ctx.n; ++c) {
    const model::SoftwareComponent& comp =
        ctx.m.component(static_cast<ComponentId>(c));
    if (bad_nonneg(comp.memory_size))
      report(ctx.a.component_subject(c),
             "memory size " + fmt(comp.memory_size) +
                 " is not a finite non-negative number",
             "set a non-negative memory size in KB");
    if (bad_nonneg(comp.cpu_load))
      report(ctx.a.component_subject(c),
             "CPU load " + fmt(comp.cpu_load) +
                 " is not a finite non-negative number",
             "set a non-negative CPU load");
  }
  // Walk the stored links in canonical (a, b > a) order. A pair the model
  // does not store reads all-zero, which the absent-link test below skips
  // anyway, so the walk is exact; the raw entries of a pair physical_link()
  // reports as disconnected fail the same test.
  ctx.m.for_each_physical_link([&](HostId a, HostId b,
                                   const model::PhysicalLink& link) {
    if (link.bandwidth <= 0.0 && link.reliability <= 0.0 &&
        !std::isnan(link.reliability) && !std::isnan(link.bandwidth))
      return;  // absent link
    const std::string subject =
        "link " + ctx.m.host(a).name + "--" + ctx.m.host(b).name;
    if (bad_unit(link.reliability))
      report(subject,
             "reliability " + fmt(link.reliability) + " is outside [0, 1]",
             "clamp the reliability into [0, 1]");
    if (bad_nonneg(link.bandwidth))
      report(subject,
             "bandwidth " + fmt(link.bandwidth) +
                 " is not a finite non-negative number",
             "set a non-negative bandwidth in KB/s");
    if (bad_nonneg(link.delay_ms))
      report(subject,
             "delay " + fmt(link.delay_ms) +
                 " is not a finite non-negative number",
             "set a non-negative delay in ms");
  });
  // Iterate the raw logical links, not interactions(): the interaction
  // cache filters on frequency > 0, which would hide negative/NaN entries.
  // Storage order is hash order, so collect the defective pairs and report
  // them in canonical (a, b) order.
  std::vector<std::pair<ComponentId, ComponentId>> defective;
  ctx.m.for_each_logical_link(
      [&](ComponentId a, ComponentId b, const model::LogicalLink& link) {
        if (bad_nonneg(link.frequency) || bad_nonneg(link.avg_event_size))
          defective.emplace_back(a, b);
      });
  std::sort(defective.begin(), defective.end());
  for (const auto& [a, b] : defective) {
    const model::LogicalLink& link = ctx.m.logical_link(a, b);
    const std::string subject = "interaction " + ctx.m.component(a).name +
                                "--" + ctx.m.component(b).name;
    if (bad_nonneg(link.frequency))
      report(subject, "frequency " + fmt(link.frequency) + " is invalid",
             "set a non-negative interaction frequency");
    if (bad_nonneg(link.avg_event_size))
      report(subject, "event size " + fmt(link.avg_event_size) + " is invalid",
             "set a non-negative average event size in KB");
  }
}

void check_location(Ctx& ctx) {
  if (ctx.k == 0) {
    if (ctx.n > 0)
      ctx.report.add({Rule::kLocationUnsat,
                      Severity::kError,
                      {"model"},
                      "the model has components but no hosts",
                      "add at least one host"});
    return;
  }
  for (std::size_t c = 0; c < ctx.n; ++c) {
    if (ctx.a.allowed_count(c) > 0) continue;
    ctx.report.add(
        {Rule::kLocationUnsat,
         Severity::kError,
         {ctx.a.component_subject(c)},
         "the allow-list minus the forbidden hosts leaves no legal host",
         "widen the allow-list or drop a forbid rule"});
  }
}

void check_colocation(Ctx& ctx) {
  for (const auto& [a, b] : ctx.set.anti_colocation_pairs()) {
    if (a >= ctx.n || b >= ctx.n) continue;  // dangling rule reports these
    if (ctx.a.group_root(a) != ctx.a.group_root(b)) continue;
    ctx.report.add({Rule::kColocationConflict,
                    Severity::kError,
                    {ctx.a.component_subject(a), ctx.a.component_subject(b)},
                    "the must-collocate closure forces them onto one host "
                    "but a separation constraint forbids sharing one",
                    "break the collocation chain or drop the separation"});
  }
}

std::string group_subjects(const Ctx& ctx,
                           const std::vector<std::size_t>& group) {
  std::string out = "group {";
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (i > 0) out += ", ";
    out += ctx.m.component(static_cast<ComponentId>(group[i])).name;
  }
  return out + "}";
}

/// The largest memory and CPU capacity among a set of legal hosts, and
/// whether every one of them models CPU.
struct BestHost {
  double memory = 0.0;
  double cpu = 0.0;
  bool all_model_cpu = true;
};

/// BestHost over the hosts whose bit is set in `legal` (nullptr: all hosts).
BestHost best_legal_host(const Ctx& ctx,
                         const std::vector<std::uint64_t>* legal) {
  BestHost best;
  for (std::size_t h = 0; h < ctx.k; ++h) {
    if (legal != nullptr && !mask_bit(*legal, h)) continue;
    const model::Host& host = ctx.m.host(static_cast<HostId>(h));
    best.memory = std::max(best.memory, host.memory_capacity);
    best.cpu = std::max(best.cpu, host.cpu_capacity);
    best.all_model_cpu &= host.cpu_capacity > 0.0;
  }
  return best;
}

void check_groups(Ctx& ctx) {
  if (ctx.k == 0) return;
  // Most groups may use every host; their best host is the all-hosts best,
  // computed once instead of per group.
  const BestHost best_of_all = best_legal_host(ctx, nullptr);
  // Global pigeonhole first: total footprint vs total capacity.
  if (ctx.n > 0) {
    double total_mem = 0.0, total_cap = 0.0;
    for (std::size_t c = 0; c < ctx.n; ++c)
      total_mem += ctx.m.component(static_cast<ComponentId>(c)).memory_size;
    for (std::size_t h = 0; h < ctx.k; ++h)
      total_cap += ctx.m.host(static_cast<HostId>(h)).memory_capacity;
    if (total_mem > total_cap)
      ctx.report.add({Rule::kCapacityPigeonhole,
                      Severity::kError,
                      {"model"},
                      "total component memory " + fmt(total_mem) +
                          " KB exceeds total host memory " + fmt(total_cap) +
                          " KB",
                      "grow the hosts or shrink the components"});
  }

  for (const auto& group : ctx.a.groups()) {
    // Skip groups with an individually-unsatisfiable member: location-unsat
    // already reported the root cause.
    bool member_unsat = false;
    for (const std::size_t c : group)
      member_unsat |= ctx.a.allowed_count(c) == 0;
    if (member_unsat) continue;

    const std::vector<std::uint64_t> common = ctx.a.allowed_intersection(group);
    const std::size_t legal_hosts = mask_count(common);
    if (legal_hosts == 0) {
      if (group.size() > 1)
        ctx.report.add({Rule::kGroupLocationUnsat,
                        Severity::kError,
                        {group_subjects(ctx, group)},
                        "the collocated components' allow-lists have an "
                        "empty intersection: no common legal host",
                        "align the group's location constraints"});
      continue;
    }

    double group_mem = 0.0, group_cpu = 0.0;
    for (const std::size_t c : group) {
      group_mem += ctx.m.component(static_cast<ComponentId>(c)).memory_size;
      group_cpu += ctx.m.component(static_cast<ComponentId>(c)).cpu_load;
    }
    const BestHost best = legal_hosts == ctx.k
                              ? best_of_all
                              : best_legal_host(ctx, &common);
    const std::string subject = group.size() == 1
                                    ? ctx.a.component_subject(group[0])
                                    : group_subjects(ctx, group);
    if (group_mem > best.memory)
      ctx.report.add(
          {Rule::kCapacityPigeonhole,
           Severity::kError,
           {subject},
           (group.size() == 1 ? "memory footprint "
                              : "combined memory footprint ") +
               fmt(group_mem) + " KB exceeds the best legal host's " +
               fmt(best.memory) + " KB",
           "grow a legal host, shrink the components, or relax the "
           "constraints"});
    if (best.all_model_cpu && group_cpu > best.cpu)
      ctx.report.add(
          {Rule::kCapacityPigeonhole,
           Severity::kError,
           {subject},
           (group.size() == 1 ? "CPU load " : "combined CPU load ") +
               fmt(group_cpu) + " exceeds the best legal host's capacity " +
               fmt(best.cpu),
           "grow a legal host's CPU capacity or relax the constraints"});
  }
}

/// Visits, in ascending order, the hosts a physical link with bandwidth > 0
/// connects `h` to (DeploymentModel::connected): the model's row of `h`
/// filtered, so the analyzer keeps no adjacency of its own.
template <typename Visit>
void for_each_connected(const DeploymentModel& m, std::size_t h,
                        Visit&& visit) {
  const auto host = static_cast<HostId>(h);
  for (const HostId other : m.physical_neighbors(host))
    if (m.connected(host, other)) visit(other);
}

/// Connected components of the physical network, labelled in order of their
/// lowest host id.
std::vector<std::size_t> network_components(const DeploymentModel& m) {
  const std::size_t k = m.host_count();
  std::vector<std::size_t> label(k, k);  // k == unvisited
  std::size_t next = 0;
  std::vector<std::size_t> stack;
  for (std::size_t root = 0; root < k; ++root) {
    if (label[root] != k) continue;
    label[root] = next;
    stack.push_back(root);
    while (!stack.empty()) {
      const std::size_t h = stack.back();
      stack.pop_back();
      for_each_connected(m, h, [&](std::size_t other) {
        if (label[other] != k) return;
        label[other] = next;
        stack.push_back(other);
      });
    }
    ++next;
  }
  return label;
}

/// One component's legal hosts inside one partition: how many, and the
/// lowest of them (meaningful when count == 1).
struct PartitionHosts {
  std::size_t count = 0;
  std::size_t host = 0;
};

/// Stops counting once two hosts are found: callers only ask "none, one
/// (which), or several".
PartitionHosts legal_hosts_in(std::span<const std::uint64_t> row,
                              const std::uint64_t* partition) {
  PartitionHosts out;
  for (std::size_t w = 0; w < row.size() && out.count < 2; ++w) {
    const std::uint64_t bits = row[w] & partition[w];
    if (bits == 0) continue;
    if (out.count == 0)
      out.host = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    out.count += static_cast<std::size_t>(std::popcount(bits));
  }
  return out;
}

void check_network(Ctx& ctx) {
  if (ctx.k == 0) return;
  const std::vector<std::size_t> label = network_components(ctx.m);
  std::size_t partitions = 0;
  for (const std::size_t l : label) partitions = std::max(partitions, l + 1);
  // Host bitmask per partition, in the allow rows' word layout, so an
  // endpoint's legal hosts in a partition cost k/64 word ANDs.
  const std::size_t words = (ctx.k + 63) / 64;
  std::vector<std::uint64_t> partition_hosts(partitions * words, 0);
  for (std::size_t h = 0; h < ctx.k; ++h)
    partition_hosts[label[h] * words + h / 64] |= std::uint64_t{1} << (h % 64);
  // Separation pairs are stored canonically (a < b), like interactions.
  std::vector<std::pair<ComponentId, ComponentId>> separations =
      ctx.set.anti_colocation_pairs();
  std::sort(separations.begin(), separations.end());

  for (const model::Interaction& ix : ctx.m.interactions()) {
    if (ix.a >= ctx.n || ix.b >= ctx.n) continue;
    // Direct separation constraint between the endpoints?
    const bool separated = std::binary_search(
        separations.begin(), separations.end(), std::pair{ix.a, ix.b});

    bool reachable = false;
    for (std::size_t part = 0; part < partitions && !reachable; ++part) {
      const std::uint64_t* hosts = partition_hosts.data() + part * words;
      const PartitionHosts a = legal_hosts_in(ctx.a.allowed_row(ix.a), hosts);
      const PartitionHosts b = legal_hosts_in(ctx.a.allowed_row(ix.b), hosts);
      if (a.count == 0 || b.count == 0) continue;
      // With a separation constraint the endpoints need two distinct hosts
      // in the same partition; without one, collocation always works.
      if (!separated || a.count > 1 || b.count > 1 || a.host != b.host)
        reachable = true;
    }
    if (reachable) continue;
    ctx.report.add(
        {Rule::kNetworkPartition,
         Severity::kError,
         {ctx.a.component_subject(ix.a), ctx.a.component_subject(ix.b)},
         "no allowed host pair for this interaction lies in one connected "
         "network partition: the interaction can never be carried",
         "add a physical link between the partitions or relax the "
         "location/separation constraints"});
  }
}

void check_regions(Ctx& ctx) {
  // Region constraints only bind models that actually declare regions.
  if (ctx.m.region_count() < 2) return;
  for (std::size_t c = 0; c < ctx.n; ++c) {
    if (ctx.a.allowed_count(c) == 0) continue;  // location-unsat owns these
    std::size_t first_region = 0;
    bool seen = false, spread = false;
    for (std::size_t h = 0; h < ctx.k && !spread; ++h) {
      if (!ctx.a.allowed(c, h)) continue;
      const std::size_t region = ctx.m.host_region(static_cast<HostId>(h));
      if (!seen) {
        first_region = region;
        seen = true;
      } else {
        spread = region != first_region;
      }
    }
    if (spread) continue;
    ctx.report.add(
        {Rule::kRegionSpof,
         Severity::kWarning,
         {ctx.a.component_subject(c)},
         "every legal host lies in region " + std::to_string(first_region) +
             ": one correlated region failure removes all placement "
             "candidates",
         "allow a host in another region or re-zone the hosts"});
  }
}

void check_lints(Ctx& ctx) {
  if (ctx.k > 1) {
    for (std::size_t h = 0; h < ctx.k; ++h) {
      bool isolated = true;
      for_each_connected(ctx.m, h, [&](std::size_t) { isolated = false; });
      if (isolated)
        ctx.report.add({Rule::kIsolatedHost,
                        Severity::kWarning,
                        {ctx.a.host_subject(h)},
                        "no physical link connects this host to the rest of "
                        "the network",
                        "add a physical link or drop the host"});
    }
  }
  if (ctx.n > 0 && ctx.k > 0) {
    double min_mem = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < ctx.n; ++c)
      min_mem = std::min(
          min_mem, ctx.m.component(static_cast<ComponentId>(c)).memory_size);
    for (std::size_t h = 0; h < ctx.k; ++h) {
      const model::Host& host = ctx.m.host(static_cast<HostId>(h));
      if (min_mem > host.memory_capacity)
        ctx.report.add({Rule::kUselessHost,
                        Severity::kWarning,
                        {ctx.a.host_subject(h)},
                        "memory capacity " + fmt(host.memory_capacity) +
                            " KB is below every component's footprint "
                            "(smallest: " +
                            fmt(min_mem) + " KB)",
                        "grow the host or drop it from the model"});
    }
  }
}

}  // namespace

AnalysisContext::AnalysisContext(const DeploymentModel& model,
                                 const ConstraintSet& set)
    : model_(&model),
      set_(&set),
      n_(model.component_count()),
      k_(model.host_count()),
      words_((k_ + 63) / 64) {
  // The same compiled rows as ConstraintChecker; the builder also accepts
  // models the checker's constructor rejects (zero hosts).
  rows_ = model::allowed_host_masks(set, n_, k_);

  // Must-collocate closure, flattened to per-component roots.
  UnionFind uf(n_);
  for (const auto& [a, b] : set.colocation_pairs())
    if (a < n_ && b < n_) uf.unite(a, b);
  root_.resize(n_);
  std::vector<std::vector<std::size_t>> members(n_);
  for (std::size_t c = 0; c < n_; ++c) {
    root_[c] = uf.find(c);
    members[root_[c]].push_back(c);
  }
  for (auto& g : members)
    if (!g.empty()) groups_.push_back(std::move(g));
}

std::size_t AnalysisContext::allowed_count(std::size_t c) const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < words_; ++w)
    total += static_cast<std::size_t>(std::popcount(rows_[c * words_ + w]));
  return total;
}

std::vector<std::uint64_t> AnalysisContext::allowed_intersection(
    const std::vector<std::size_t>& members) const {
  std::vector<std::uint64_t> out(words_, ~std::uint64_t{0});
  for (const std::size_t c : members)
    for (std::size_t w = 0; w < words_; ++w) out[w] &= rows_[c * words_ + w];
  // Mask off the bits beyond the host count.
  if (words_ > 0 && k_ % 64 != 0)
    out[words_ - 1] &= (std::uint64_t{1} << (k_ % 64)) - 1;
  return out;
}

std::string AnalysisContext::component_subject(std::size_t c) const {
  if (c < model_->component_count())
    return "component " + model_->component(static_cast<ComponentId>(c)).name;
  return "component #" + std::to_string(c);
}

std::string AnalysisContext::host_subject(std::size_t h) const {
  if (h < model_->host_count())
    return "host " + model_->host(static_cast<HostId>(h)).name;
  return "host #" + std::to_string(h);
}

CheckReport StaticAnalyzer::analyze(const AnalysisContext& context) const {
  CheckReport report;
  Ctx ctx{context,           context.model(), context.constraints(),
          report,            context.components(),
          context.hosts()};

  check_dangling(ctx);
  check_param_ranges(ctx);
  check_location(ctx);
  check_colocation(ctx);
  check_groups(ctx);
  if (options_.network_reachability) check_network(ctx);
  check_regions(ctx);
  if (options_.lints) check_lints(ctx);
  return report;
}

CheckReport StaticAnalyzer::analyze(const DeploymentModel& model,
                                    const ConstraintSet& set) const {
  return analyze(AnalysisContext(model, set));
}

CheckReport run_checks(const DeploymentModel& model, const ConstraintSet& set,
                       const CheckOptions& options) {
  return StaticAnalyzer(options).analyze(model, set);
}

}  // namespace dif::check
