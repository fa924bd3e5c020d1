#include "desi/modifier.h"

#include <algorithm>

namespace dif::desi {

void Modifier::set_link_reliability(model::HostId a, model::HostId b,
                                    double value) {
  system_.model().set_link_reliability(a, b, value);
}

void Modifier::set_link_bandwidth(model::HostId a, model::HostId b,
                                  double value) {
  system_.model().set_link_bandwidth(a, b, value);
}

void Modifier::set_link_delay(model::HostId a, model::HostId b, double value) {
  system_.model().set_link_delay(a, b, value);
}

void Modifier::set_host_memory(model::HostId h, double kb) {
  system_.model().host(h).memory_capacity = kb;
  system_.model().notify_entity_changed();
}

void Modifier::set_component_memory(model::ComponentId c, double kb) {
  system_.model().component(c).memory_size = kb;
  system_.model().notify_entity_changed();
}

void Modifier::set_interaction_frequency(model::ComponentId a,
                                         model::ComponentId b,
                                         double events_per_s) {
  model::LogicalLink link = system_.model().logical_link(a, b);
  link.frequency = events_per_s;
  system_.model().set_logical_link(a, b, std::move(link));
}

void Modifier::set_interaction_event_size(model::ComponentId a,
                                          model::ComponentId b, double kb) {
  model::LogicalLink link = system_.model().logical_link(a, b);
  link.avg_event_size = kb;
  system_.model().set_logical_link(a, b, std::move(link));
}

void Modifier::set_host_property(model::HostId h, std::string_view name,
                                 double value) {
  system_.model().host(h).properties.set(name, value);
  system_.model().notify_entity_changed();
}

void Modifier::set_component_property(model::ComponentId c,
                                      std::string_view name, double value) {
  system_.model().component(c).properties.set(name, value);
  system_.model().notify_entity_changed();
}

std::vector<std::string> Modifier::drain_host(model::HostId host) {
  const model::DeploymentModel& m = system_.model();
  std::vector<std::string> unmovable;
  for (std::size_t c = 0; c < m.component_count(); ++c) {
    const auto comp = static_cast<model::ComponentId>(c);
    // A component whose allow-list collapses to {host} cannot leave.
    bool has_alternative = false;
    for (std::size_t h = 0; h < m.host_count(); ++h) {
      const auto other = static_cast<model::HostId>(h);
      if (other != host &&
          system_.constraints().host_allowed(comp, other)) {
        has_alternative = true;
        break;
      }
    }
    if (has_alternative) {
      system_.constraints().forbid_host(comp, host);
    } else {
      unmovable.push_back(m.component(comp).name);
    }
  }
  system_.notify_constraints_changed();
  return unmovable;
}

void Modifier::scale_all_reliabilities(double factor) {
  model::DeploymentModel& m = system_.model();
  // Rescaling keeps bandwidth > 0, so every visited link stays stored.
  m.for_each_physical_link([&](model::HostId ha, model::HostId hb,
                               const model::PhysicalLink& link) {
    if (link.bandwidth > 0.0)  // connected
      m.set_link_reliability(ha, hb,
                             std::clamp(link.reliability * factor, 0.0, 1.0));
  });
}

}  // namespace dif::desi
