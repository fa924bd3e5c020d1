#include "prism/brick.h"

#include <algorithm>

#include "prism/architecture.h"

namespace dif::prism {

void Brick::add_monitor(std::shared_ptr<IMonitor> monitor) {
  if (monitor) monitors_.push_back(std::move(monitor));
}

void Brick::remove_monitor(const IMonitor* monitor) {
  std::erase_if(monitors_,
                [monitor](const auto& m) { return m.get() == monitor; });
}

void Brick::notify_sent(const Event& event) const {
  for (const auto& m : monitors_) m->on_event_sent(*this, event);
}

void Brick::notify_received(const Event& event) const {
  for (const auto& m : monitors_) m->on_event_received(*this, event);
}

void Component::send(Event event) {
  if (event.from().empty()) event.set_from(name());
  notify_sent(event);
  for (Connector* connector : connectors_) connector->route(event, this);
}

void Component::deliver(const Event& event) {
  notify_received(event);
  handle(event);
}

void Connector::route(const Event& event, Component* sender) {
  notify_received(event);
  deliver_locally(event, sender);
}

void Connector::deliver_locally(const Event& event, Component* sender) {
  if (!arch_) return;
  // Deliveries go through Architecture::post_to by *name*: the target is
  // re-resolved when the scaffold fires the dispatch, so a component that
  // migrates away between routing and delivery is handled by the
  // architecture's undeliverable hook instead of a dangling pointer.
  if (event.to_id() != kEmptyName) {
    for (Component* component : components_) {
      if (component != sender && component->name_id() == event.to_id()) {
        arch_->post_to(component->name_id(), event);
        return;
      }
    }
    return;  // destination not welded to this connector
  }
  for (Component* component : components_) {
    if (component == sender) continue;
    arch_->post_to(component->name_id(), event);
  }
}

}  // namespace dif::prism
