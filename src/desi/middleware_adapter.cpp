#include "desi/middleware_adapter.h"

#include "util/logging.h"

namespace dif::desi {

MiddlewareAdapter::MiddlewareAdapter(SystemData& system,
                                     prism::DeployerComponent& deployer)
    : system_(system), deployer_(deployer) {}

void MiddlewareAdapter::attach_monitor() {
  deployer_.set_report_handler(
      [this](const prism::HostReport& report) { apply_report(report); });
}

void MiddlewareAdapter::apply_report(const prism::HostReport& report) {
  ++reports_;
  model::DeploymentModel& m = system_.model();
  if (report.host >= m.host_count()) {
    util::log_warn("desi.adapter", "report from unknown host ", report.host);
    return;
  }

  // Observed component locations update the deployment ground truth.
  system_.sync_deployment_size();
  for (const prism::HostReport::ComponentInfo& info : report.components) {
    if (const auto c = m.find_component(info.name)) {
      if (system_.deployment().host_of(*c) != report.host)
        system_.move_component(*c, report.host);
    }
  }

  // Monitored interaction frequencies -> logical links.
  for (const prism::HostReport::InteractionInfo& info : report.interactions) {
    const auto a = m.find_component(info.from);
    const auto b = m.find_component(info.to);
    if (!a || !b || *a == *b) continue;
    model::LogicalLink link = m.logical_link(*a, *b);
    link.frequency = info.frequency;
    if (info.avg_size_kb > 0.0) link.avg_event_size = info.avg_size_kb;
    m.set_logical_link(*a, *b, std::move(link));
  }

  // Monitored link reliabilities -> physical links.
  for (const prism::HostReport::ReliabilityInfo& info : report.reliabilities) {
    if (info.peer >= m.host_count() || info.peer == report.host) continue;
    if (!m.connected(report.host, info.peer)) continue;
    m.set_link_reliability(report.host, info.peer, info.reliability);
  }
}

bool MiddlewareAdapter::effect(
    const model::Deployment& target,
    prism::DeployerComponent::CompletionHandler done) {
  const model::DeploymentModel& m = system_.model();
  if (target.size() != m.component_count()) return false;
  prism::DeployerComponent::TargetDeployment names;
  names.reserve(target.size());
  for (std::size_t c = 0; c < target.size(); ++c) {
    const auto comp = static_cast<model::ComponentId>(c);
    if (target.host_of(comp) == model::kNoHost) continue;
    names.emplace_back(m.component(comp).name, target.host_of(comp));
  }
  return deployer_.effect_deployment(names, std::move(done));
}

}  // namespace dif::desi
