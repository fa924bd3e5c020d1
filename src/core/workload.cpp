#include "core/workload.h"

namespace dif::core {

WorkloadComponent::WorkloadComponent(std::string name, double memory_kb,
                                     std::vector<Link> links)
    : prism::Component(std::move(name)),
      memory_kb_(memory_kb),
      links_(std::move(links)) {
  intern_peers();
}

WorkloadComponent::WorkloadComponent(std::string name)
    : prism::Component(std::move(name)) {}

void WorkloadComponent::handle(const prism::Event& event) {
  if (event.name() == "app.msg") ++received_;
}

void WorkloadComponent::serialize_state(prism::ByteWriter& writer) const {
  writer.f64(memory_kb_);
  writer.u64(sent_);
  writer.u64(received_);
  writer.u64(epoch_);
  writer.u32(static_cast<std::uint32_t>(links_.size()));
  for (const Link& link : links_) {
    writer.str(link.peer);
    writer.f64(link.frequency);
    writer.f64(link.size_kb);
  }
}

void WorkloadComponent::restore_state(prism::ByteReader& reader) {
  memory_kb_ = reader.f64();
  sent_ = reader.u64();
  received_ = reader.u64();
  epoch_ = reader.u64();  // start() will advance it past the old schedule
  const std::uint32_t count = reader.u32();
  links_.clear();
  links_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Link link;
    link.peer = reader.str();
    link.frequency = reader.f64();
    link.size_kb = reader.f64();
    links_.push_back(std::move(link));
  }
  intern_peers();
}

void WorkloadComponent::intern_peers() {
  peer_ids_.clear();
  peer_ids_.reserve(links_.size());
  for (const Link& link : links_) peer_ids_.push_back(prism::intern(link.peer));
}

void WorkloadComponent::start() {
  if (!architecture()) return;
  running_ = true;
  ++epoch_;  // kills any schedule chain belonging to a previous attachment
  for (std::size_t i = 0; i < links_.size(); ++i) schedule_link(i);
}

void WorkloadComponent::on_attached() {
  // Restart the sending schedule automatically after a migration (the
  // original instance was started explicitly; a migrant restores running_
  // only implicitly via this hook — it was running when it was detached).
  if (!links_.empty() && epoch_ > 0) start();
}

void WorkloadComponent::on_detached() { running_ = false; }

void WorkloadComponent::schedule_link(std::size_t index) {
  const Link& link = links_[index];
  if (link.frequency <= 0.0) return;
  const double interval_ms = 1000.0 / link.frequency;
  // The callback re-resolves the component by name (id): after a migration
  // this instance is destroyed, and the chain must die (the migrant restarts
  // its own chain with a newer epoch).
  prism::Architecture* arch = architecture();
  const prism::NameId self = name_id();
  const std::uint64_t epoch = epoch_;
  arch->scaffold().schedule(interval_ms, [arch, self, epoch, index] {
    auto* component = dynamic_cast<WorkloadComponent*>(
        arch->find_component(self));
    if (!component || !component->running_ || component->epoch_ != epoch)
      return;
    const Link& l = component->links_[index];
    prism::Event event("app.msg");
    event.set_to(component->peer_ids_[index]);
    // Materialize the payload so event.size_kb() reflects the modelled
    // event size and bandwidth accounting is faithful.
    event.set("payload", std::vector<std::uint8_t>(
                             static_cast<std::size_t>(l.size_kb * 1024.0)));
    component->send(std::move(event));
    ++component->sent_;
    component->schedule_link(index);
  });
}

void WorkloadComponent::register_with(prism::ComponentFactory& factory) {
  factory.register_type("workload", [](std::string name) {
    return std::make_unique<WorkloadComponent>(std::move(name));
  });
}

}  // namespace dif::core
