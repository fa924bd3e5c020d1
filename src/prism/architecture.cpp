#include "prism/architecture.h"

#include <algorithm>
#include <stdexcept>

#include "util/assert.h"

namespace dif::prism {

Architecture::Architecture(std::string name, IScaffold& scaffold,
                           model::HostId host)
    : Brick(std::move(name)), scaffold_(scaffold), host_(host) {}

Architecture::~Architecture() = default;

Component& Architecture::add_component(std::unique_ptr<Component> component) {
  if (!component)
    throw std::invalid_argument("Architecture: null component");
  if (find_component(component->name_id()))
    throw std::invalid_argument("Architecture: duplicate component name '" +
                                component->name() + "'");
  component->arch_ = this;
  const NameId id = component->name_id();
  if (id >= by_id_.size()) by_id_.resize(id + 1, nullptr);
  by_id_[id] = component.get();
  components_.push_back(std::move(component));
  check_index();
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

std::unique_ptr<Component> Architecture::detach_component(NameId name) {
  const Component* attached = find_component(name);
  if (!attached) return nullptr;
  const auto it =
      std::find_if(components_.begin(), components_.end(),
                   [&](const auto& c) { return c.get() == attached; });
  std::unique_ptr<Component> component = std::move(*it);
  components_.erase(it);
  by_id_[name] = nullptr;
  check_index();
  component->on_detached();
  for (Connector* connector : component->connectors_)
    std::erase(connector->components_, component.get());
  component->connectors_.clear();
  component->arch_ = nullptr;
  return component;
}

void Architecture::check_index() const {
#ifdef DIF_ENABLE_ASSERTS
  std::size_t indexed = 0;
  for (const Component* c : by_id_) indexed += c != nullptr;
  DIF_ASSERT(indexed == components_.size(),
             "Architecture: by-id index and component list disagree");
  for (const auto& c : components_)
    DIF_ASSERT(find_component(c->name_id()) == c.get(),
               "Architecture: component missing from by-id index");
#endif
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

void Architecture::post_to(NameId component, const Event& event) {
  post_to(component, Event(event));
}

void Architecture::post_to(NameId component, Event&& event) {
  scaffold_.dispatch(
      [this, component, event = std::move(event)]() mutable {
        if (Component* target = find_component(component)) {
          target->deliver(event);
        } else if (undeliverable_) {
          undeliverable_(std::move(event));
        }
      });
}

}  // namespace dif::prism
