#include "prism/architecture.h"

#include <algorithm>
#include <stdexcept>

namespace dif::prism {

Architecture::Architecture(std::string name, IScaffold& scaffold,
                           model::HostId host)
    : Brick(std::move(name)), scaffold_(scaffold), host_(host) {}

Architecture::~Architecture() = default;

Component& Architecture::add_component(std::unique_ptr<Component> component) {
  if (!component)
    throw std::invalid_argument("Architecture: null component");
  if (find_component(component->name()))
    throw std::invalid_argument("Architecture: duplicate component name '" +
                                component->name() + "'");
  component->arch_ = this;
  components_.push_back(std::move(component));
  Component& ref = *components_.back();
  ref.on_attached();
  return ref;
}

Connector& Architecture::add_connector(std::unique_ptr<Connector> connector) {
  if (!connector)
    throw std::invalid_argument("Architecture: null connector");
  if (find_connector(connector->name()))
    throw std::invalid_argument("Architecture: duplicate connector name '" +
                                connector->name() + "'");
  connector->arch_ = this;
  connectors_.push_back(std::move(connector));
  return *connectors_.back();
}

void Architecture::weld(Component& component, Connector& connector) {
  if (component.arch_ != this || connector.arch_ != this)
    throw std::invalid_argument("Architecture: weld of foreign brick");
  if (!std::count(component.connectors_.begin(), component.connectors_.end(),
                  &connector))
    component.connectors_.push_back(&connector);
  if (!std::count(connector.components_.begin(), connector.components_.end(),
                  &component))
    connector.components_.push_back(&component);
}

void Architecture::unweld(Component& component, Connector& connector) {
  std::erase(component.connectors_, &connector);
  std::erase(connector.components_, &component);
}

std::unique_ptr<Component> Architecture::detach_component(
    const std::string& name) {
  const auto it =
      std::find_if(components_.begin(), components_.end(),
                   [&](const auto& c) { return c->name() == name; });
  if (it == components_.end()) return nullptr;
  std::unique_ptr<Component> component = std::move(*it);
  components_.erase(it);
  component->on_detached();
  for (Connector* connector : component->connectors_)
    std::erase(connector->components_, component.get());
  component->connectors_.clear();
  component->arch_ = nullptr;
  return component;
}

void Architecture::remove_connector(const std::string& name) {
  const auto it =
      std::find_if(connectors_.begin(), connectors_.end(),
                   [&](const auto& c) { return c->name() == name; });
  if (it == connectors_.end()) return;
  if (!(*it)->components_.empty())
    throw std::logic_error("Architecture: removing connector with welds");
  connectors_.erase(it);
}

Component* Architecture::find_component(const std::string& name) const {
  const auto it =
      std::find_if(components_.begin(), components_.end(),
                   [&](const auto& c) { return c->name() == name; });
  return it == components_.end() ? nullptr : it->get();
}

Connector* Architecture::find_connector(const std::string& name) const {
  const auto it =
      std::find_if(connectors_.begin(), connectors_.end(),
                   [&](const auto& c) { return c->name() == name; });
  return it == connectors_.end() ? nullptr : it->get();
}

std::vector<std::string> Architecture::component_names() const {
  std::vector<std::string> names;
  names.reserve(components_.size());
  for (const auto& c : components_) names.push_back(c->name());
  return names;
}

double Architecture::total_memory_kb() const {
  double total = 0.0;
  for (const auto& c : components_) total += c->memory_kb();
  return total;
}

void Architecture::post_to(const std::string& component, const Event& event) {
  post_to(component, Event(event));
}

void Architecture::post_to(const std::string& component, Event&& event) {
  // Copy the name before the event is moved: it may alias event.to().
  std::string name = component;
  scaffold_.dispatch(
      [this, name = std::move(name), event = std::move(event)]() mutable {
        if (Component* target = find_component(name)) {
          target->deliver(event);
        } else if (undeliverable_) {
          undeliverable_(std::move(event));
        }
      });
}

}  // namespace dif::prism
