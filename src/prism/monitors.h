// Prism-MW monitoring facilities (paper Sections 3.1 and 4.3).
//
// Monitors are two-part: a platform-dependent part that hooks into the
// middleware (IMonitor on Bricks, pings through the DistributionConnector)
// and a platform-independent part that interprets the data — here the
// StabilityFilter, which only releases a monitored value into the model once
// it has stabilized ("the difference in the data across a desired number of
// consecutive intervals is less than an adjustable value epsilon").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/ids.h"
#include "obs/instruments.h"
#include "prism/brick.h"
#include "prism/distribution.h"
#include "sim/simulator.h"
#include "util/statistics.h"

namespace dif::prism {

/// Platform-independent stability gate: add() returns a value only when the
/// last `window` samples vary by less than `epsilon`.
class StabilityFilter {
 public:
  StabilityFilter(std::size_t window, double epsilon);

  /// Feeds one sample; returns the window mean when stable, else nullopt.
  std::optional<double> add(double sample);

  [[nodiscard]] bool stable() const;
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  void reset() { window_.clear(); }

 private:
  util::SlidingWindow window_;
  double epsilon_;
};

/// Records the frequencies of events exchanged between components (the
/// paper's EvtFrequencyMonitor). One instance is shared by all application
/// components of a host; AdminComponent drains it periodically.
///
/// Control events (names starting with "__") are middleware traffic and are
/// not counted.
class EvtFrequencyMonitor final : public IMonitor {
 public:
  /// A pair that stops interacting keeps appearing in collect() output with
  /// an explicit zero frequency for `retain_windows` further collections, so
  /// downstream consumers (stability filters, the model) observe the decay
  /// instead of the pair silently vanishing from reports.
  explicit EvtFrequencyMonitor(const IScaffold& scaffold,
                               std::size_t retain_windows = 8);

  void on_event_sent(const Brick& brick, const Event& event) override;
  void on_event_received(const Brick& brick, const Event& event) override;

  /// Resolves the monitor's metric handles once (none when no registry).
  void set_instruments(obs::Instruments instruments);

  /// One measured interaction: events/second from `from` to `to` over the
  /// last collection window.
  struct PairFrequency {
    std::string from;
    std::string to;
    double frequency = 0.0;
    double avg_event_size_kb = 0.0;
  };

  /// Returns frequencies since the previous collect() and resets counters.
  /// Pairs active in recent windows but silent in this one are reported
  /// with frequency 0 (see constructor).
  [[nodiscard]] std::vector<PairFrequency> collect();

  [[nodiscard]] std::uint64_t events_observed() const noexcept {
    return observed_;
  }

 private:
  struct Counter {
    std::uint64_t count = 0;
    double total_kb = 0.0;
  };
  /// A (from, to) component pair packed as from_id << 32 | to_id.
  using PairKey = std::uint64_t;
  /// Orders pair keys by (from name, to name), the order collect() reports.
  struct ByNames {
    bool operator()(PairKey a, PairKey b) const;
  };
  void count(NameId from, NameId to, const Event& event);

  const IScaffold& scaffold_;
  std::size_t retain_windows_;
  double window_start_ms_;
  std::unordered_map<PairKey, Counter> counts_;
  /// Consecutive zero-event collections per known pair; pruned past
  /// retain_windows_.
  std::map<PairKey, std::size_t, ByNames> quiet_windows_;
  std::uint64_t observed_ = 0;
  obs::Counter* collections_ = nullptr;
  obs::Counter* zero_pairs_ = nullptr;
  obs::Gauge* pairs_ = nullptr;
};

/// Measures link reliability to each peer with the paper's "common pinging
/// technique": rounds of probes through the DistributionConnector; the
/// delivered fraction of ping/pong round trips estimates the link's
/// one-way reliability as sqrt(rtt_success) (both directions drop
/// independently with the same probability).
class NetworkReliabilityMonitor {
 public:
  struct Params {
    double interval_ms = 500.0;
    std::uint32_t pings_per_round = 8;
  };

  /// Installs itself as the connector's pong handler. The connector and
  /// simulator must outlive the monitor.
  NetworkReliabilityMonitor(DistributionConnector& connector,
                            sim::Simulator& simulator, Params params);

  /// Starts periodic ping rounds; idempotent.
  void start();
  void stop() noexcept { running_ = false; }

  /// Resolves the monitor's metric handles once (none when no registry).
  void set_instruments(obs::Instruments instruments);

  struct PeerReliability {
    model::HostId peer;
    double reliability;
    std::uint64_t probes;
  };

  /// Per-peer estimates since the last collect(); peers with no probes yet
  /// are omitted. Resets counters.
  [[nodiscard]] std::vector<PeerReliability> collect();

 private:
  void ping_round();
  void schedule_next();

  DistributionConnector& connector_;
  sim::Simulator& sim_;
  Params params_;
  bool running_ = false;
  std::map<model::HostId, std::pair<std::uint64_t, std::uint64_t>>
      sent_received_;
  obs::Counter* pings_ = nullptr;
  obs::Counter* collections_ = nullptr;
  obs::Gauge* peers_ = nullptr;
};

}  // namespace dif::prism
