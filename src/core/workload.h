// WorkloadComponent: the simulated application component.
//
// The paper's experiments run real applications (e.g. the crisis-response
// system) on Prism-MW; here the application is synthesized from the model's
// logical links: each WorkloadComponent periodically sends application
// events to its interaction partners at the modelled frequency and size, so
// the EvtFrequencyMonitors observe exactly the workload the model describes
// (and keep observing it correctly after the component migrates — its
// sending schedule and configuration travel with its serialized state).
#pragma once

#include <vector>

#include "prism/admin.h"
#include "prism/architecture.h"

namespace dif::core {

class WorkloadComponent final : public prism::Component {
 public:
  struct Link {
    std::string peer;        // destination component name
    double frequency = 0.0;  // events per second
    double size_kb = 0.0;    // payload size per event
  };

  /// `memory_kb` is what the component reports to monitoring (mirrors the
  /// model's component memory size).
  WorkloadComponent(std::string name, double memory_kb,
                    std::vector<Link> links);
  /// Factory form: configuration arrives via restore_state.
  explicit WorkloadComponent(std::string name);

  [[nodiscard]] std::string type_name() const override { return "workload"; }
  [[nodiscard]] double memory_kb() const override { return memory_kb_; }

  void handle(const prism::Event& event) override;

  void serialize_state(prism::ByteWriter& writer) const override;
  void restore_state(prism::ByteReader& reader) override;

  /// Begins the periodic sending schedule; re-invoked automatically after
  /// migration (on_attached). Idempotent per attachment.
  void start();

  void on_attached() override;
  void on_detached() override;

  [[nodiscard]] std::uint64_t events_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t events_received() const noexcept {
    return received_;
  }

  /// Registers this type with a migration factory.
  static void register_with(prism::ComponentFactory& factory);

 private:
  void schedule_link(std::size_t index);

  /// Interns each link's peer once, so sends set the destination by id.
  void intern_peers();

  double memory_kb_ = 1.0;
  std::vector<Link> links_;
  std::vector<prism::NameId> peer_ids_;  // parallel to links_
  bool running_ = false;
  /// Invalidates scheduled sends from a previous attachment epoch.
  std::uint64_t epoch_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace dif::core
