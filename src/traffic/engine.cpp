#include "traffic/engine.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/logging.h"

namespace dif::traffic {

namespace {

/// Wire cost of one direct (reachable) leg: propagation + serialized
/// transfer + the wait behind whatever is already queued on the link.
double hop_cost(const sim::SimNetwork& net, model::HostId from,
                model::HostId to, double size_kb) {
  const sim::LinkState& link = net.link(from, to);
  return link.delay_ms + 1'000.0 * size_kb / link.bandwidth +
         net.backlog_ms(from, to);
}

}  // namespace

std::string_view to_string(ArrivalModel m) noexcept {
  return m == ArrivalModel::kOpen ? "open" : "closed";
}

std::string_view to_string(IntensityShape s) noexcept {
  switch (s) {
    case IntensityShape::kFlat: return "flat";
    case IntensityShape::kDiurnal: return "diurnal";
    case IntensityShape::kFlash: return "flash";
  }
  return "flat";
}

ArrivalModel arrival_by_name(const std::string& name) {
  if (name == "open") return ArrivalModel::kOpen;
  if (name == "closed") return ArrivalModel::kClosed;
  throw std::invalid_argument("unknown arrival model '" + name + "'");
}

IntensityShape shape_by_name(const std::string& name) {
  if (name == "flat") return IntensityShape::kFlat;
  if (name == "diurnal") return IntensityShape::kDiurnal;
  if (name == "flash") return IntensityShape::kFlash;
  throw std::invalid_argument("unknown intensity shape '" + name + "'");
}

TrafficEngine::TrafficEngine(core::CentralizedInstantiation& inst,
                             EngineConfig config,
                             obs::Instruments instruments)
    : inst_(inst),
      config_(std::move(config)),
      obs_(instruments),
      arrivals_rng_(util::Xoshiro256ss(config_.seed).fork(0x7261ff1c)),
      path_rng_(util::Xoshiro256ss(config_.seed).fork(0x7261ff1d)),
      shed_rng_(util::Xoshiro256ss(config_.seed).fork(0x7261ff1e)) {
  if (config_.tenants.empty()) config_.tenants.push_back({"t0", 1.0, 1.0});
  if (config_.tick_ms <= 0.0)
    throw std::invalid_argument("TrafficEngine: tick_ms must be positive");

  const model::DeploymentModel& m = inst_.system().model();
  adjacency_.resize(m.component_count());
  edge_size_kb_.resize(m.component_count());
  for (const model::Interaction& it : m.interactions()) {
    adjacency_[it.a].push_back(it.b);
    edge_size_kb_[it.a].push_back(it.avg_event_size);
    adjacency_[it.b].push_back(it.a);
    edge_size_kb_[it.b].push_back(it.avg_event_size);
  }
  for (model::ComponentId c = 0; c < m.component_count(); ++c)
    if (!adjacency_[c].empty()) entry_pool_.push_back(c);
  if (entry_pool_.empty())
    for (model::ComponentId c = 0; c < m.component_count(); ++c)
      entry_pool_.push_back(c);

  location_.assign(m.component_count(), model::kNoHost);
  hop_load_.assign(m.host_count(), 0.0);
  prev_util_.assign(m.host_count(), 0.0);
  smoothed_util_.assign(m.host_count(), 0.0);
  stats_.resize(config_.tenants.size());
  shed_level_.assign(config_.tenants.size(), 0.0);
  for (const TenantSpec& t : config_.tenants) total_weight_ += t.weight;
  if (total_weight_ <= 0.0) total_weight_ = 1.0;

  if (config_.arrival == ArrivalModel::kClosed) {
    // Weighted round-robin user->tenant assignment (largest remainder), so
    // the population split follows the weights without any RNG draws.
    user_tenant_.reserve(config_.closed_users);
    std::vector<double> owed(config_.tenants.size(), 0.0);
    for (std::size_t u = 0; u < config_.closed_users; ++u) {
      std::size_t best = 0;
      for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
        owed[t] += config_.tenants[t].weight / total_weight_;
        if (owed[t] > owed[best]) best = t;
      }
      owed[best] -= 1.0;
      user_tenant_.push_back(best);
    }
    user_next_free_.assign(config_.closed_users, 0.0);
  }

  if (obs_.metrics) {
    tenant_metrics_.resize(config_.tenants.size());
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      const std::string base = "traffic.tenant." + config_.tenants[t].name;
      tenant_metrics_[t].offered = &obs_.metrics->counter(base + ".offered");
      tenant_metrics_[t].completed =
          &obs_.metrics->counter(base + ".completed");
      tenant_metrics_[t].failed = &obs_.metrics->counter(base + ".failed");
      tenant_metrics_[t].shed = &obs_.metrics->counter(base + ".shed");
      // Finer-than-default bounds across the serving range: the ratekeeper
      // reads windowed p99 off bucket upper bounds, and the default
      // 100->250->500 jumps would quantize every tail sample straight past
      // a serving SLO.
      tenant_metrics_[t].latency_ms = &obs_.metrics->histogram(
          base + ".latency_ms",
          {5.0, 10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 300.0,
           400.0, 500.0, 750.0, 1'000.0, 2'000.0, 5'000.0});
    }
    util_gauges_.resize(m.host_count());
    for (model::HostId h = 0; h < m.host_count(); ++h)
      util_gauges_[h] =
          &obs_.metrics->gauge("traffic.host." + std::to_string(h) + ".util");
    fail_host_down_ = &obs_.metrics->counter("traffic.failed.host_down");
    fail_partitioned_ = &obs_.metrics->counter("traffic.failed.partitioned");
    fail_migrating_ = &obs_.metrics->counter("traffic.failed.migrating");
    fail_no_path_ = &obs_.metrics->counter("traffic.failed.no_path");
    fail_timeout_ = &obs_.metrics->counter("traffic.failed.timeout");
  }
}

void TrafficEngine::start() {
  running_ = true;
  inst_.simulator().schedule_after(config_.tick_ms, [this] { tick(); });
}

double TrafficEngine::intensity(double t_ms) const {
  switch (config_.shape) {
    case IntensityShape::kFlat:
      return 1.0;
    case IntensityShape::kDiurnal:
      return 1.0 + 0.6 * std::sin(2.0 * std::numbers::pi * t_ms /
                                  std::max(config_.diurnal_period_ms, 1.0));
    case IntensityShape::kFlash:
      return (t_ms >= config_.flash_at_ms &&
              t_ms < config_.flash_at_ms + config_.flash_duration_ms)
                 ? config_.flash_multiplier
                 : 1.0;
  }
  return 1.0;
}

void TrafficEngine::set_shed_level(std::size_t tenant, double level) {
  shed_level_.at(tenant) = std::clamp(level, 0.0, 1.0);
}

model::HostId TrafficEngine::resolve(model::ComponentId component) const {
  return location_[component];
}

void TrafficEngine::refresh_locations() {
  std::fill(location_.begin(), location_.end(), model::kNoHost);
  for (model::HostId h = 0; h < inst_.system().model().host_count(); ++h)
    for (const auto& brick : inst_.architecture(h).components())
      // Middleware bricks and bricks the model does not know map to no
      // component: nothing routes to them.
      if (const model::ComponentId c = inst_.component_of(brick->name_id());
          c != model::kNoComponent)
        location_[c] = h;
}

double TrafficEngine::service_at(model::HostId host) const {
  // M/M/1-flavoured congestion: as the previous tick's utilization nears
  // 1, service time inflates toward 20x; saturation is what the
  // ratekeeper's tag throttling exists to relieve.
  const double util = std::min(prev_util_[host], 0.95);
  return config_.service_ms / std::max(0.05, 1.0 - util);
}

std::uint64_t TrafficEngine::draw_poisson(double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth: multiply uniforms until the product drops under e^-lambda.
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= arrivals_rng_.uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation for large rates (one draw per tenant-tick).
  const double draw = arrivals_rng_.normal(lambda, std::sqrt(lambda));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(draw));
}

void TrafficEngine::fail_request(std::size_t tenant,
                                 std::uint64_t FailureCounts::*reason) {
  failures_.*reason += 1;
  ++stats_[tenant].failed;
  stats_[tenant].latencies_ms.push_back(config_.failure_penalty_ms);
  if (obs_.metrics) {
    tenant_metrics_[tenant].failed->add(1);
    tenant_metrics_[tenant].latency_ms->observe(config_.failure_penalty_ms);
    if (reason == &FailureCounts::host_down) fail_host_down_->add(1);
    else if (reason == &FailureCounts::partitioned) fail_partitioned_->add(1);
    else if (reason == &FailureCounts::migrating) fail_migrating_->add(1);
    else if (reason == &FailureCounts::timeout) fail_timeout_->add(1);
    else fail_no_path_->add(1);
  }
}

double TrafficEngine::run_request(std::size_t tenant, double /*at_ms*/) {
  const sim::SimNetwork& net = inst_.network();
  model::ComponentId cur = entry_pool_[path_rng_.index(entry_pool_.size())];

  model::HostId host = resolve(cur);
  if (host == model::kNoHost) {
    fail_request(tenant, &FailureCounts::migrating);
    return config_.failure_penalty_ms;
  }
  if (!net.host_up(host)) {
    fail_request(tenant, &FailureCounts::host_down);
    return config_.failure_penalty_ms;
  }
  if (adjacency_[cur].empty()) {
    fail_request(tenant, &FailureCounts::no_path);
    return config_.failure_penalty_ms;
  }

  double latency = service_at(host);
  hop_load_[host] += 1.0;
  for (std::size_t hop = 1; hop < config_.path_hops; ++hop) {
    if (adjacency_[cur].empty()) break;
    const std::size_t pick = path_rng_.index(adjacency_[cur].size());
    const model::ComponentId next = adjacency_[cur][pick];
    const double size_kb = edge_size_kb_[cur][pick];

    const model::HostId next_host = resolve(next);
    if (next_host == model::kNoHost) {
      fail_request(tenant, &FailureCounts::migrating);
      return config_.failure_penalty_ms;
    }
    if (next_host != host) {
      // The data plane's routing precedence: a direct link, else mediation
      // via the master's host (prism/distribution.cpp). A mediated hop
      // pays both legs.
      if (net.reachable(host, next_host)) {
        latency += hop_cost(net, host, next_host, size_kb);
      } else if (const model::HostId master = inst_.config().master_host;
                 master != host && master != next_host &&
                 net.reachable(host, master) &&
                 net.reachable(master, next_host)) {
        latency += hop_cost(net, host, master, size_kb) +
                   hop_cost(net, master, next_host, size_kb);
      } else {
        fail_request(tenant, net.host_up(host) && net.host_up(next_host)
                                 ? &FailureCounts::partitioned
                                 : &FailureCounts::host_down);
        return config_.failure_penalty_ms;
      }
    }
    latency += service_at(next_host);
    hop_load_[next_host] += 1.0;
    cur = next;
    host = next_host;
  }

  if (config_.request_timeout_ms > 0.0 &&
      latency > config_.request_timeout_ms) {
    // The user gave up waiting (queueing behind a backed-up link, or a
    // saturated host): a timeout, not a success with absurd latency.
    fail_request(tenant, &FailureCounts::timeout);
    return config_.failure_penalty_ms;
  }

  ++stats_[tenant].completed;
  stats_[tenant].latencies_ms.push_back(latency);
  if (obs_.metrics) {
    tenant_metrics_[tenant].completed->add(1);
    tenant_metrics_[tenant].latency_ms->observe(latency);
  }
  return latency;
}

void TrafficEngine::tick() {
  if (!running_) return;
  ++ticks_;
  const double now = inst_.simulator().now();
  const double tick_s = config_.tick_ms / 1'000.0;
  refresh_locations();
  std::fill(hop_load_.begin(), hop_load_.end(), 0.0);

  const double scale = intensity(now);
  if (config_.arrival == ArrivalModel::kOpen) {
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      const double lambda = config_.rps *
                            (config_.tenants[t].weight / total_weight_) *
                            scale * tick_s;
      const std::uint64_t arrivals = draw_poisson(lambda);
      for (std::uint64_t i = 0; i < arrivals; ++i) {
        ++stats_[t].offered;
        if (obs_.metrics) tenant_metrics_[t].offered->add(1);
        if (shed_level_[t] > 0.0 && shed_rng_.chance(shed_level_[t])) {
          ++stats_[t].shed;
          if (obs_.metrics) tenant_metrics_[t].shed->add(1);
          continue;
        }
        run_request(t, now);
      }
    }
  } else {
    const double tick_end = now + config_.tick_ms;
    std::size_t outstanding = 0;
    for (std::size_t u = 0; u < user_tenant_.size(); ++u) {
      const std::size_t t = user_tenant_[u];
      while (user_next_free_[u] < tick_end) {
        const double issue_at = std::max(user_next_free_[u], now);
        ++stats_[t].offered;
        if (obs_.metrics) tenant_metrics_[t].offered->add(1);
        if (shed_level_[t] > 0.0 && shed_rng_.chance(shed_level_[t])) {
          ++stats_[t].shed;
          if (obs_.metrics) tenant_metrics_[t].shed->add(1);
          // A shed user backs off a full think time (never zero, or a
          // zero-think config would spin inside one tick forever).
          user_next_free_[u] = issue_at + std::max(config_.think_ms, 1.0);
          continue;
        }
        const double latency = run_request(t, issue_at);
        user_next_free_[u] = issue_at + latency + config_.think_ms;
      }
      // Still serving (not yet thinking) at the tick boundary?
      if (user_next_free_[u] - config_.think_ms > tick_end) ++outstanding;
    }
    max_outstanding_ = std::max(max_outstanding_, outstanding);
  }

  for (model::HostId h = 0; h < hop_load_.size(); ++h) {
    prev_util_[h] =
        hop_load_[h] / std::max(config_.host_capacity_rps * tick_s, 1e-9);
    smoothed_util_[h] = 0.8 * smoothed_util_[h] + 0.2 * prev_util_[h];
    if (obs_.metrics) util_gauges_[h]->set(smoothed_util_[h]);
  }

  inst_.simulator().schedule_after(config_.tick_ms, [this] { tick(); });
}

}  // namespace dif::traffic
