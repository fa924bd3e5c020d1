// The framework's centralized instantiation (paper Figure 2).
//
// Builds a complete running system from a SystemData description:
//
//   Master Host: Centralized Model (the SystemData), Master Monitor +
//     Centralized User Input feeding it, DeployerComponent (Master
//     Effector), the DeSi MiddlewareAdapter, and the Centralized
//     Analyzer/Algorithm (via ImprovementLoop).
//   Slave Hosts: one Prism-MW Architecture each, with a
//     DistributionConnector (peers per physical links, deployer-mediated
//     otherwise), a Slave Monitor pair (EvtFrequencyMonitor +
//     NetworkReliabilityMonitor), a Slave Effector (AdminComponent), and
//     the application's WorkloadComponents per the initial deployment.
//
// Everything runs on the discrete-event simulator; the caller owns the
// clock: start(), then simulator().run_until(t), interleaved with
// ImprovementLoop ticks or manual improve/effect calls.
#pragma once

#include <memory>

#include "core/workload.h"
#include "desi/middleware_adapter.h"
#include "desi/system_data.h"
#include "prism/deployer.h"
#include "sim/fluctuation.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dif::core {

struct FrameworkConfig {
  /// The Master Host runs the DeployerComponent and mediates component
  /// transfers between hosts that are not directly connected — it should
  /// therefore be network-adjacent to every other host (the paper's
  /// Headquarters role). In a sparse topology pick a hub.
  model::HostId master_host = 0;
  bool enable_monitoring = true;
  /// When false, admins keep their monitors but never push reports (the
  /// decentralized instantiation polls monitors locally instead).
  bool enable_admin_reporting = true;
  /// When false, no DeployerComponent (and no mediator) is created — the
  /// substrate for the decentralized instantiation, which has no master.
  bool create_deployer = true;
  /// Store-and-forward queuing of remote events during disconnection
  /// (paper §6 future work, "queuing of remote calls"). Off = paper's base
  /// behaviour (events toward a severed link are lost).
  bool enable_store_and_forward = false;
  double store_and_forward_retry_ms = 1'000.0;
  /// Admin monitoring/report cadence, stability filter, and (when
  /// memory_capacity_kb is set) the prepare-phase capacity vote.
  prism::AdminComponent::Params admin;
  /// Transactional-redeployment budgets: deadlines, retry caps/backoff,
  /// and allow_partial (admin_hosts is filled in by the instantiation).
  prism::DeployerComponent::DeployerParams deployer;
  /// Reliability pinging cadence.
  prism::NetworkReliabilityMonitor::Params reliability;
  std::uint64_t seed = 1;
};

class CentralizedInstantiation {
 public:
  /// `system` is both the design-time model (User Input / xADL) and the
  /// runtime Centralized Model the monitors update; it must outlive the
  /// instantiation. Requires a complete initial deployment.
  CentralizedInstantiation(desi::SystemData& system, FrameworkConfig config);
  ~CentralizedInstantiation();

  CentralizedInstantiation(const CentralizedInstantiation&) = delete;
  CentralizedInstantiation& operator=(const CentralizedInstantiation&) =
      delete;

  /// Starts workloads, monitors, and admin reporting.
  void start();

  /// Fans the observability handle out to every layer already built:
  /// network, frequency/reliability monitors, admins, and the deployer.
  /// Call before start() to capture the run from t=0; the ImprovementLoop
  /// carries its own handle (see ImprovementLoop::set_instruments).
  void set_instruments(obs::Instruments instruments);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] sim::SimNetwork& network() noexcept { return *network_; }
  [[nodiscard]] desi::SystemData& system() noexcept { return system_; }
  [[nodiscard]] prism::DeployerComponent& deployer() noexcept {
    return *deployer_;
  }
  [[nodiscard]] desi::MiddlewareAdapter& adapter() noexcept {
    return *adapter_;
  }
  [[nodiscard]] prism::Architecture& architecture(model::HostId host) {
    return *architectures_.at(host);
  }
  [[nodiscard]] prism::AdminComponent& admin(model::HostId host);
  [[nodiscard]] prism::DistributionConnector& connector(model::HostId host) {
    return *connectors_.at(host);
  }
  /// Per-host monitors (null when monitoring is disabled). The decentralized
  /// instantiation polls these directly instead of admin reporting.
  [[nodiscard]] prism::EvtFrequencyMonitor* freq_monitor(model::HostId host) {
    return freq_monitors_.at(host).get();
  }
  [[nodiscard]] prism::NetworkReliabilityMonitor* reliability_monitor(
      model::HostId host) {
    return host < rel_monitors_.size() ? rel_monitors_.at(host).get()
                                       : nullptr;
  }

  /// Host crash + restart (chaos hooks; the paper's device-reboot
  /// dependability event). crash_host takes the host's network down and
  /// crashes its admin — and the deployer, when `host` is the master — so
  /// volatile middleware state is lost exactly as a reboot would lose it.
  /// restart_host brings the network back and re-registers the host with
  /// the rest of the system (see AdminComponent::restart); monitoring
  /// reports resume per the framework config. Both are idempotent.
  void crash_host(model::HostId host);
  void restart_host(model::HostId host);

  /// The runtime identity of model component `component`: the interned
  /// name of the brick that implements it.
  [[nodiscard]] prism::NameId name_id(model::ComponentId component) const {
    return name_ids_.at(component);
  }
  /// The model component a brick named `name` implements; kNoComponent for
  /// middleware bricks and for names the model does not know.
  [[nodiscard]] model::ComponentId component_of(prism::NameId name) const {
    return name < components_by_name_.size() ? components_by_name_[name]
                                             : model::kNoComponent;
  }

  /// The deployment as the running system currently has it (the hosts
  /// whose architectures hold each component's brick; kNoHost for
  /// components no host holds).
  [[nodiscard]] model::Deployment runtime_deployment() const;

  /// Total application events sent / received across all workloads.
  struct WorkloadStats {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };
  [[nodiscard]] WorkloadStats workload_stats() const;

  [[nodiscard]] const FrameworkConfig& config() const noexcept {
    return config_;
  }

 private:
  desi::SystemData& system_;
  FrameworkConfig config_;
  /// Model component -> brick name, and brick name -> model component
  /// (kNoComponent where none), fixed at construction.
  std::vector<prism::NameId> name_ids_;
  std::vector<model::ComponentId> components_by_name_;
  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<prism::SimScaffold> scaffold_;
  prism::ComponentFactory factory_;
  std::vector<std::unique_ptr<prism::Architecture>> architectures_;
  std::vector<prism::DistributionConnector*> connectors_;  // owned by archs
  std::vector<std::shared_ptr<prism::EvtFrequencyMonitor>> freq_monitors_;
  std::vector<std::unique_ptr<prism::NetworkReliabilityMonitor>>
      rel_monitors_;
  std::vector<prism::AdminComponent*> admins_;  // owned by archs
  prism::DeployerComponent* deployer_ = nullptr;
  std::unique_ptr<desi::MiddlewareAdapter> adapter_;
};

}  // namespace dif::core
