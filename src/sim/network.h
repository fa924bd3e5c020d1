// Simulated network connecting the hosts of a distributed system.
//
// Stands in for the paper's physical network (DESIGN.md §2): every pair of
// hosts may have a link with a reliability (message survival probability),
// a bandwidth (KB/s, transfers are serialized per link), and a propagation
// delay. Links can be severed and restored at runtime to script the
// "network disconnections during system execution" the paper's motivating
// scenario is built around.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "model/deployment_model.h"
#include "model/ids.h"
#include "obs/instruments.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace dif::sim {

/// Runtime state of one physical link.
struct LinkState {
  double reliability = 0.0;   // delivery probability in [0, 1]
  double bandwidth = 0.0;     // KB/s; <= 0 means no link
  double delay_ms = 0.0;      // propagation delay
  bool severed = false;       // hard partition overrides everything
};

/// A message in flight between two hosts.
struct NetMessage {
  model::HostId from = 0;
  model::HostId to = 0;
  /// Demultiplexing label ("app", "monitor", "deploy", ...).
  std::string channel;
  /// Opaque payload (serialized Prism-MW events, component state, ...).
  std::vector<std::uint8_t> payload;
  /// Size used for bandwidth accounting (KB); may exceed payload.size()
  /// to model application data not literally materialized in the test.
  double size_kb = 0.0;
};

/// Delivery counters, total and per link.
struct MessageStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;      // lost to reliability
  std::uint64_t unroutable = 0;   // no link / severed
  double kb_sent = 0.0;
  double kb_delivered = 0.0;
};

/// One link's share of the drop count (canonical pair, a < b).
struct LinkDrops {
  model::HostId a = 0;
  model::HostId b = 0;
  std::uint64_t dropped = 0;
};

/// A fuzz hook's verdict on one outbound message (chaos/fuzz.h). Applied
/// after the routability checks and before the reliability draw, so a
/// mutation never masks (or is masked by) an unroutable verdict:
///   drop        the message dies on the link (charged like a loss)
///   delay_ms    extra hold before the transfer starts (a large value past
///               later messages' arrivals is a reorder)
///   duplicates  extra copies re-entering send() after duplicate_gap_ms
///               each; replayed copies are never re-fuzzed
struct FuzzDecision {
  bool drop = false;
  double delay_ms = 0.0;
  int duplicates = 0;
  double duplicate_gap_ms = 0.0;
};

class SimNetwork {
 public:
  /// The simulator must outlive the network.
  SimNetwork(Simulator& simulator, std::size_t host_count,
             std::uint64_t seed);

  /// Builds a network whose links mirror `m`'s physical links.
  static SimNetwork from_model(Simulator& simulator,
                               const model::DeploymentModel& m,
                               std::uint64_t seed);

  [[nodiscard]] std::size_t host_count() const noexcept { return k_; }

  // --- topology -----------------------------------------------------------

  void set_link(model::HostId a, model::HostId b, LinkState state);
  [[nodiscard]] const LinkState& link(model::HostId a, model::HostId b) const;

  /// Severs / restores a link without losing its parameters.
  void sever(model::HostId a, model::HostId b);
  void restore(model::HostId a, model::HostId b);

  /// Host failure injection: a down host can neither send nor receive on
  /// any of its links (all other link state is preserved and comes back
  /// when the host recovers). Models device crashes/battery death — the
  /// dependability events the paper's framework reacts to.
  void fail_host(model::HostId host);
  void recover_host(model::HostId host);
  [[nodiscard]] bool host_up(model::HostId host) const;

  /// Can a message currently travel between the two hosts?
  [[nodiscard]] bool reachable(model::HostId a, model::HostId b) const;

  /// Current transfer-queue backlog on the (a, b) link: how long a message
  /// sent right now would wait for the serialized transfer slot before its
  /// own transfer starts (0 for local pairs and idle links). The traffic
  /// engine charges user requests this wait so they queue behind bulk
  /// migration transfers without materializing their own bytes.
  [[nodiscard]] double backlog_ms(model::HostId a, model::HostId b) const;

  // --- messaging ----------------------------------------------------------

  using Receiver = std::function<void(const NetMessage&)>;

  /// Installs the receiver invoked when a message arrives at `host`.
  void set_receiver(model::HostId host, Receiver receiver);

  /// Sends `msg`. Local (from == to) messages are delivered next tick with
  /// no loss. Remote messages are dropped with probability 1 - reliability;
  /// surviving ones arrive after delay + serialized transfer time. Returns
  /// false when the message was immediately unroutable.
  ///
  /// Arrivals fire in exactly the (time, seq) order of one simulator event
  /// per message, but a link's messages mostly travel in its in-flight
  /// queue: transfers serialize on the link, so its arrival times usually
  /// increase in send order. A message arriving strictly after the link's
  /// queue tail joins the queue under a reserved sequence number
  /// (Simulator::reserve_seq), and only the queue head has a simulator
  /// event; when it fires it schedules the next head under that head's own
  /// (time, seq). A message that would not arrive strictly after the tail
  /// (fuzz delay, a link delay lowered in flight, equal arrival times) and
  /// every local message gets its own event as before.
  bool send(NetMessage msg);

  [[nodiscard]] const MessageStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept;

  /// Messages sent and not yet arrived (delivered, or dropped on arrival at
  /// a crashed host). Most of them wait in per-link queues rather than in
  /// the simulator (see send()), so Simulator::pending() does not count
  /// them. Simulator::clear() drops them all.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return sim_.clears() == clears_seen_ ? in_flight_ : 0;
  }

  /// Drops charged to the (a, b) link: reliability losses plus messages that
  /// were in flight on the link when the receiver crashed. Local (a == a)
  /// deliveries are never charged to a link.
  [[nodiscard]] std::uint64_t link_dropped(model::HostId a,
                                           model::HostId b) const;
  /// Every link with at least one drop, in canonical (a, b) order —
  /// campaign reports use this to localize lossy links.
  [[nodiscard]] std::vector<LinkDrops> dropped_links() const;

  /// Installs (or, with an empty function, removes) the message-level fuzz
  /// interceptor. The hook sees every routable remote message exactly once
  /// — duplicates it injects are replayed verbatim, not re-fuzzed — and
  /// returning nullopt passes the message through untouched. Fuzz drops are
  /// charged to the link like reliability losses ("net.fuzz.*" counters
  /// additionally attribute every mutation).
  using FuzzHook = std::function<std::optional<FuzzDecision>(const NetMessage&)>;
  void set_fuzz_hook(FuzzHook hook) { fuzz_hook_ = std::move(hook); }

  /// Attaches observability sinks. Counters mirror MessageStats under
  /// "net.*"; each link additionally feeds a queueing-delay histogram
  /// ("net.link.<lo>-<hi>.queue_ms": time a message waited for the link's
  /// serialized transfer slot, excluding propagation delay). Metric handles
  /// are resolved here once — the send path must not rebuild metric names
  /// per message (registry references are allocation-stable).
  void set_instruments(obs::Instruments instruments);

  [[nodiscard]] Simulator& simulator() noexcept { return sim_; }

 private:
  /// Pre-resolved "net.*" metric handles; null when observability is off.
  struct CachedMetrics {
    obs::Counter* sent = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* unroutable = nullptr;
    obs::Counter* fuzz_duplicated = nullptr;
    obs::Counter* fuzz_dropped = nullptr;
    obs::Counter* fuzz_delayed = nullptr;
    obs::Gauge* kb_sent = nullptr;
    obs::Gauge* kb_delivered = nullptr;
    obs::Histogram* queue_ms = nullptr;
  };

  /// A message waiting in its link's in-flight queue, with the arrival
  /// time and sequence number its own simulator event would have had.
  struct InFlight {
    TimePoint at = 0.0;
    std::uint64_t seq = 0;
    NetMessage msg;
  };
  /// FIFO ring of one link's queued messages (both directions); arrival
  /// times strictly increase from head to tail. Capacity is zero or a power
  /// of two and is kept when the queue drains.
  struct LinkQueue {
    std::vector<InFlight> ring;
    std::size_t head = 0;
    std::size_t size = 0;
    [[nodiscard]] InFlight& at(std::size_t i) {
      return ring[(head + i) & (ring.size() - 1)];
    }
    void push(InFlight item);
    NetMessage pop();
  };

  [[nodiscard]] std::size_t index(model::HostId a, model::HostId b) const;
  /// Schedules `m`'s arrival as an event of its own.
  void schedule_arrival(NetMessage m, TimePoint at);
  /// Queues `m` on link `li`, or gives it its own event when it would not
  /// arrive strictly after the link's tail.
  void enqueue(std::size_t li, NetMessage m, TimePoint at);
  /// Schedules link `li`'s queue head under its reserved (time, seq).
  void schedule_head(std::size_t li);
  /// Pops and delivers link `li`'s queue head (its event is firing).
  void arrive_head(std::size_t li);
  /// Arrival of `m` at its destination: delivered, or dropped if the host
  /// crashed while it was in flight.
  void arrive(const NetMessage& m);
  /// Empties the link queues once the simulator has been cleared (their
  /// heads' events are gone).
  void sync_clears();
  /// The (lazily created) per-link queue-delay histogram, or null when
  /// metrics are off. Lazy because only links that actually carry traffic
  /// should appear in the registry (k^2 histograms would swamp it).
  [[nodiscard]] obs::Histogram* link_queue_histogram(std::size_t li,
                                                     model::HostId from,
                                                     model::HostId to);

  Simulator& sim_;
  std::size_t k_;
  std::vector<LinkState> links_;        // canonical-pair square matrix
  std::vector<TimePoint> link_free_;    // per-link transfer queue tail
  std::vector<std::uint64_t> link_dropped_;  // per-link share of dropped
  std::vector<LinkQueue> link_queues_;  // per-link in-flight messages
  std::size_t in_flight_ = 0;
  std::uint64_t clears_seen_ = 0;  // Simulator::clears() the queues match
  std::vector<bool> host_up_;
  std::vector<Receiver> receivers_;
  util::Xoshiro256ss rng_;
  MessageStats stats_;
  obs::Instruments obs_;
  CachedMetrics metric_;
  std::vector<obs::Histogram*> link_queue_ms_;  // lazy per-link handles
  FuzzHook fuzz_hook_;
  bool fuzz_replay_ = false;  // true while re-sending an injected duplicate
};

}  // namespace dif::sim
