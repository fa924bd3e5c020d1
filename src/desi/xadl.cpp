#include "desi/xadl.h"

namespace dif::desi {

namespace json = util::json;

json::Value XadlLite::to_json(const SystemData& system) {
  const model::DeploymentModel& m = system.model();
  json::Object doc;
  doc.emplace("schema", "dif-xadl-lite/1");

  json::Array hosts;
  for (std::size_t h = 0; h < m.host_count(); ++h) {
    const model::Host& host = m.host(static_cast<model::HostId>(h));
    json::Object entry;
    entry.emplace("name", host.name);
    entry.emplace("memory", host.memory_capacity);
    entry.emplace("cpu", host.cpu_capacity);
    entry.emplace("properties", host.properties.to_json());
    hosts.emplace_back(std::move(entry));
  }
  doc.emplace("hosts", std::move(hosts));

  json::Array components;
  for (std::size_t c = 0; c < m.component_count(); ++c) {
    const model::SoftwareComponent& comp =
        m.component(static_cast<model::ComponentId>(c));
    json::Object entry;
    entry.emplace("name", comp.name);
    entry.emplace("memory", comp.memory_size);
    entry.emplace("cpu", comp.cpu_load);
    entry.emplace("properties", comp.properties.to_json());
    components.emplace_back(std::move(entry));
  }
  doc.emplace("components", std::move(components));

  json::Array links;
  m.for_each_physical_link([&](model::HostId ha, model::HostId hb,
                               const model::PhysicalLink& link) {
    if (link.bandwidth <= 0.0 && link.reliability <= 0.0) return;
    json::Object entry;
    entry.emplace("a", m.host(ha).name);
    entry.emplace("b", m.host(hb).name);
    entry.emplace("reliability", link.reliability);
    entry.emplace("bandwidth", link.bandwidth);
    entry.emplace("delay_ms", link.delay_ms);
    entry.emplace("properties", link.properties.to_json());
    links.emplace_back(std::move(entry));
  });
  doc.emplace("physical_links", std::move(links));

  json::Array interactions;
  for (const model::Interaction& ix : m.interactions()) {
    json::Object entry;
    entry.emplace("a", m.component(ix.a).name);
    entry.emplace("b", m.component(ix.b).name);
    entry.emplace("frequency", ix.frequency);
    entry.emplace("event_size", ix.avg_event_size);
    entry.emplace("properties", m.logical_link(ix.a, ix.b).properties.to_json());
    interactions.emplace_back(std::move(entry));
  }
  doc.emplace("logical_links", std::move(interactions));

  json::Object constraints;
  {
    const model::ConstraintSet& cs = system.constraints();
    json::Array allows;
    for (const auto& [component, allowed] : cs.allow_lists()) {
      json::Object entry;
      entry.emplace("component", m.component(component).name);
      json::Array host_names;
      for (const model::HostId h : allowed)
        host_names.emplace_back(m.host(h).name);
      entry.emplace("hosts", std::move(host_names));
      allows.emplace_back(std::move(entry));
    }
    constraints.emplace("location_allow", std::move(allows));

    json::Array forbids;
    for (const auto& [component, host] : cs.forbidden_hosts()) {
      json::Object entry;
      entry.emplace("component", m.component(component).name);
      entry.emplace("host", m.host(host).name);
      forbids.emplace_back(std::move(entry));
    }
    constraints.emplace("location_forbid", std::move(forbids));

    const auto pair_array = [&](const auto& pairs) {
      json::Array out;
      for (const auto& [a, b] : pairs) {
        json::Object entry;
        entry.emplace("a", m.component(a).name);
        entry.emplace("b", m.component(b).name);
        out.emplace_back(std::move(entry));
      }
      return out;
    };
    constraints.emplace("colocate", pair_array(cs.colocation_pairs()));
    constraints.emplace("separate", pair_array(cs.anti_colocation_pairs()));
  }
  doc.emplace("constraints", std::move(constraints));

  json::Object deployment;
  if (system.deployment().size() == m.component_count()) {
    for (std::size_t c = 0; c < m.component_count(); ++c) {
      const auto comp = static_cast<model::ComponentId>(c);
      const model::HostId h = system.deployment().host_of(comp);
      if (h != model::kNoHost)
        deployment.emplace(m.component(comp).name, m.host(h).name);
    }
  }
  doc.emplace("deployment", std::move(deployment));

  return json::Value(std::move(doc));
}

std::string XadlLite::to_text(const SystemData& system) {
  return to_json(system).dump(2);
}

std::unique_ptr<SystemData> XadlLite::from_json(const json::Value& doc) {
  auto system = std::make_unique<SystemData>();
  model::DeploymentModel& m = system->model();

  for (const json::Value& entry : doc.at("hosts").as_array()) {
    model::Host host;
    host.name = entry.at("name").as_string();
    host.memory_capacity = entry.number_or("memory", 0.0);
    host.cpu_capacity = entry.number_or("cpu", 0.0);
    if (const auto props = entry.find("properties"))
      host.properties = model::PropertyMap::from_json(props->get());
    m.add_host(std::move(host));
  }
  for (const json::Value& entry : doc.at("components").as_array()) {
    model::SoftwareComponent comp;
    comp.name = entry.at("name").as_string();
    comp.memory_size = entry.number_or("memory", 0.0);
    comp.cpu_load = entry.number_or("cpu", 0.0);
    if (const auto props = entry.find("properties"))
      comp.properties = model::PropertyMap::from_json(props->get());
    m.add_component(std::move(comp));
  }
  for (const json::Value& entry : doc.at("physical_links").as_array()) {
    model::PhysicalLink link;
    link.reliability = entry.number_or("reliability", 0.0);
    link.bandwidth = entry.number_or("bandwidth", 0.0);
    link.delay_ms = entry.number_or("delay_ms", 0.0);
    if (const auto props = entry.find("properties"))
      link.properties = model::PropertyMap::from_json(props->get());
    m.set_physical_link(m.host_by_name(entry.at("a").as_string()),
                        m.host_by_name(entry.at("b").as_string()),
                        std::move(link));
  }
  for (const json::Value& entry : doc.at("logical_links").as_array()) {
    model::LogicalLink link;
    link.frequency = entry.number_or("frequency", 0.0);
    link.avg_event_size = entry.number_or("event_size", 0.0);
    if (const auto props = entry.find("properties"))
      link.properties = model::PropertyMap::from_json(props->get());
    m.set_logical_link(m.component_by_name(entry.at("a").as_string()),
                       m.component_by_name(entry.at("b").as_string()),
                       std::move(link));
  }

  if (const auto constraints = doc.find("constraints")) {
    model::ConstraintSet& cs = system->constraints();
    const json::Value& c = constraints->get();
    if (const auto allows = c.find("location_allow")) {
      for (const json::Value& entry : allows->get().as_array()) {
        std::vector<model::HostId> hosts;
        for (const json::Value& host : entry.at("hosts").as_array())
          hosts.push_back(m.host_by_name(host.as_string()));
        cs.allow_only(m.component_by_name(entry.at("component").as_string()),
                      std::move(hosts));
      }
    }
    if (const auto forbids = c.find("location_forbid")) {
      for (const json::Value& entry : forbids->get().as_array())
        cs.forbid_host(m.component_by_name(entry.at("component").as_string()),
                       m.host_by_name(entry.at("host").as_string()));
    }
    if (const auto pairs = c.find("colocate")) {
      for (const json::Value& entry : pairs->get().as_array())
        cs.require_colocation(
            m.component_by_name(entry.at("a").as_string()),
            m.component_by_name(entry.at("b").as_string()));
    }
    if (const auto pairs = c.find("separate")) {
      for (const json::Value& entry : pairs->get().as_array())
        cs.forbid_colocation(m.component_by_name(entry.at("a").as_string()),
                             m.component_by_name(entry.at("b").as_string()));
    }
  }

  system->sync_deployment_size();
  if (const auto deployment = doc.find("deployment")) {
    model::Deployment d(m.component_count());
    for (const auto& [component, host] : deployment->get().as_object())
      d.assign(m.component_by_name(component),
               m.host_by_name(host.as_string()));
    system->set_deployment(std::move(d));
  }
  return system;
}

std::unique_ptr<SystemData> XadlLite::from_text(std::string_view text) {
  return from_json(json::parse(text));
}

}  // namespace dif::desi
