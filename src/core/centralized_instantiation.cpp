#include "core/centralized_instantiation.h"

#include <stdexcept>

namespace dif::core {

CentralizedInstantiation::CentralizedInstantiation(desi::SystemData& system,
                                                   FrameworkConfig config)
    : system_(system), config_(config) {
  const model::DeploymentModel& m = system.model();
  const std::size_t k = m.host_count();
  if (k == 0) throw std::invalid_argument("instantiation: no hosts");
  if (config_.master_host >= k)
    throw std::invalid_argument("instantiation: bad master host");
  if (!system.deployment().complete())
    throw std::invalid_argument("instantiation: incomplete deployment");

  // --- one runtime identity per model component ----------------------------
  for (std::size_t c = 0; c < m.component_count(); ++c) {
    const auto comp = static_cast<model::ComponentId>(c);
    const std::string& name = m.component(comp).name;
    const prism::NameId id = prism::intern(name);
    name_ids_.push_back(id);
    if (prism::is_meta_name(name)) continue;
    if (id >= components_by_name_.size())
      components_by_name_.resize(id + 1, model::kNoComponent);
    components_by_name_[id] = comp;
  }

  network_ = std::make_unique<sim::SimNetwork>(
      sim::SimNetwork::from_model(sim_, m, config_.seed));
  scaffold_ = std::make_unique<prism::SimScaffold>(sim_);
  WorkloadComponent::register_with(factory_);

  // --- per-host architectures and connectors -------------------------------
  for (std::size_t h = 0; h < k; ++h) {
    const auto host = static_cast<model::HostId>(h);
    auto arch = std::make_unique<prism::Architecture>(
        "arch@" + m.host(host).name, *scaffold_, host);
    auto connector = std::make_unique<prism::DistributionConnector>(
        "dist@" + m.host(host).name, *network_, host);
    for (const model::HostId peer : m.physical_neighbors(host))
      if (m.connected(host, peer)) connector->add_peer(peer);
    if (config_.create_deployer) connector->set_mediator(config_.master_host);
    if (config_.enable_store_and_forward)
      connector->enable_store_and_forward(config_.store_and_forward_retry_ms);
    connectors_.push_back(
        &static_cast<prism::DistributionConnector&>(
            arch->add_connector(std::move(connector))));
    architectures_.push_back(std::move(arch));
  }

  // --- static multi-hop routes -------------------------------------------------
  // The mediator covers non-adjacent host pairs only while the master is a
  // hub. For every pair without a direct link, compute the first hop of a
  // shortest path (BFS over the design-time topology) so events can be
  // relayed host-by-host: each intermediate admin's undeliverable handler
  // re-routes the event onward. Unreachable pairs simply get no route.
  for (std::size_t h = 0; h < k; ++h) {
    const auto origin = static_cast<model::HostId>(h);
    std::vector<model::HostId> parent(k, origin);
    std::vector<bool> seen(k, false);
    seen[h] = true;
    std::vector<model::HostId> frontier{origin};
    while (!frontier.empty()) {
      std::vector<model::HostId> next;
      for (const model::HostId at : frontier)
        for (const model::HostId peer : m.physical_neighbors(at)) {
          if (seen[peer] || !m.connected(at, peer)) continue;
          seen[peer] = true;
          parent[peer] = at;
          next.push_back(peer);
        }
      frontier = std::move(next);
    }
    // A reached host whose parent is the origin is directly linked to it
    // (so is the origin itself): only the others need a route.
    for (std::size_t g = 0; g < k; ++g) {
      const auto destination = static_cast<model::HostId>(g);
      if (!seen[g] || parent[g] == origin) continue;
      model::HostId hop = destination;
      while (parent[hop] != origin) hop = parent[hop];
      connectors_[h]->set_next_hop(destination, hop);
    }
  }

  // --- location tables: initial deployment + meta components -----------------
  for (std::size_t h = 0; h < k; ++h) {
    prism::DistributionConnector& connector = *connectors_[h];
    for (std::size_t c = 0; c < m.component_count(); ++c) {
      const auto comp = static_cast<model::ComponentId>(c);
      connector.set_location(name_ids_[c], system.deployment().host_of(comp));
    }
    for (std::size_t g = 0; g < k; ++g)
      connector.set_location(
          prism::intern(prism::admin_name(static_cast<model::HostId>(g))),
          static_cast<model::HostId>(g));
    if (config_.create_deployer)
      connector.set_location(prism::intern(prism::deployer_name()),
                             config_.master_host);
  }

  // --- monitors, admins, deployer --------------------------------------------
  std::vector<model::HostId> all_hosts;
  for (std::size_t h = 0; h < k; ++h)
    all_hosts.push_back(static_cast<model::HostId>(h));
  prism::AdminComponent::Params admin_params = config_.admin;
  admin_params.fleet = all_hosts;

  for (std::size_t h = 0; h < k; ++h) {
    const auto host = static_cast<model::HostId>(h);
    std::shared_ptr<prism::EvtFrequencyMonitor> freq;
    prism::NetworkReliabilityMonitor* rel = nullptr;
    if (config_.enable_monitoring) {
      freq = std::make_shared<prism::EvtFrequencyMonitor>(*scaffold_);
      rel_monitors_.push_back(
          std::make_unique<prism::NetworkReliabilityMonitor>(
              *connectors_[h], sim_, config_.reliability));
      rel = rel_monitors_.back().get();
    }
    freq_monitors_.push_back(freq);

    auto admin = std::make_unique<prism::AdminComponent>(
        host, *connectors_[h], factory_, freq, rel, admin_params);
    admins_.push_back(&static_cast<prism::AdminComponent&>(
        architectures_[h]->add_component(std::move(admin))));
    architectures_[h]->weld(*admins_[h], *connectors_[h]);

    if (config_.create_deployer && host == config_.master_host) {
      // The deployer runs beside the master's regular admin, under its own
      // "__deployer" identity (monitoring stays with the admin).
      prism::DeployerComponent::DeployerParams deployer_params =
          config_.deployer;
      deployer_params.admin_hosts = all_hosts;
      auto deployer = std::make_unique<prism::DeployerComponent>(
          host, *connectors_[h], factory_, nullptr, nullptr, admin_params,
          deployer_params);
      deployer_ = &static_cast<prism::DeployerComponent&>(
          architectures_[h]->add_component(std::move(deployer)));
      architectures_[h]->weld(*deployer_, *connectors_[h]);
    }
  }

  // --- application components per the initial deployment -----------------------
  for (std::size_t c = 0; c < m.component_count(); ++c) {
    const auto comp = static_cast<model::ComponentId>(c);
    const model::HostId host = system.deployment().host_of(comp);
    std::vector<WorkloadComponent::Link> links;
    for (const model::Interaction& ix : m.interactions()) {
      // Send the full modelled frequency in one canonical direction so the
      // monitored (from, to) pair maps 1:1 onto the symmetric logical link.
      if (ix.a != comp) continue;
      links.push_back({m.component(ix.b).name, ix.frequency,
                       ix.avg_event_size});
    }
    auto workload = std::make_unique<WorkloadComponent>(
        m.component(comp).name, m.component(comp).memory_size,
        std::move(links));
    prism::Component& attached =
        architectures_[host]->add_component(std::move(workload));
    architectures_[host]->weld(attached, *connectors_[host]);
    if (config_.enable_monitoring && freq_monitors_[host])
      attached.add_monitor(freq_monitors_[host]);
  }

  if (deployer_) {
    adapter_ = std::make_unique<desi::MiddlewareAdapter>(system_, *deployer_);
    adapter_->attach_monitor();
  }
}

CentralizedInstantiation::~CentralizedInstantiation() = default;

void CentralizedInstantiation::start() {
  for (const auto& arch : architectures_)
    for (const auto& brick : arch->components())
      if (auto* workload = dynamic_cast<WorkloadComponent*>(brick.get()))
        workload->start();
  if (config_.enable_monitoring) {
    for (const auto& rel : rel_monitors_) rel->start();
    if (config_.enable_admin_reporting)
      for (prism::AdminComponent* admin : admins_) admin->start_reporting();
  }
}

void CentralizedInstantiation::set_instruments(obs::Instruments instruments) {
  network_->set_instruments(instruments);
  for (const auto& freq : freq_monitors_)
    if (freq) freq->set_instruments(instruments);
  for (const auto& rel : rel_monitors_) rel->set_instruments(instruments);
  for (prism::AdminComponent* admin : admins_)
    admin->set_instruments(instruments);
  if (deployer_) deployer_->set_instruments(instruments);
}

prism::AdminComponent& CentralizedInstantiation::admin(model::HostId host) {
  return *admins_.at(host);
}

void CentralizedInstantiation::crash_host(model::HostId host) {
  network_->fail_host(host);
  admins_.at(host)->crash();
  if (deployer_ && host == config_.master_host) deployer_->crash();
}

void CentralizedInstantiation::restart_host(model::HostId host) {
  network_->recover_host(host);
  if (deployer_ && host == config_.master_host)
    deployer_->restart(/*resume_reporting=*/false);
  admins_.at(host)->restart(config_.enable_monitoring &&
                            config_.enable_admin_reporting);
}

model::Deployment CentralizedInstantiation::runtime_deployment() const {
  const model::DeploymentModel& m = system_.model();
  model::Deployment d(m.component_count());
  for (std::size_t h = 0; h < architectures_.size(); ++h)
    for (const auto& brick : architectures_[h]->components())
      if (const model::ComponentId c = component_of(brick->name_id());
          c != model::kNoComponent)
        d.assign(c, static_cast<model::HostId>(h));
  return d;
}

CentralizedInstantiation::WorkloadStats
CentralizedInstantiation::workload_stats() const {
  WorkloadStats stats;
  for (const auto& arch : architectures_)
    for (const auto& brick : arch->components())
      if (const auto* workload =
              dynamic_cast<const WorkloadComponent*>(brick.get())) {
        stats.sent += workload->events_sent();
        stats.received += workload->events_received();
      }
  return stats;
}

}  // namespace dif::core
