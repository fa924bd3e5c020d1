// Deterministic discrete-event simulation kernel.
//
// The paper's tools ran on physical PDAs and PCs; this simulator is the
// substitute substrate (see DESIGN.md §2). Everything above it — the
// Prism-MW middleware, monitors, effectors, the improvement loop — executes
// against simulated time, so experiments are exactly reproducible and
// disconnection/fluctuation scenarios can be scripted.
//
// Events fire in (time, insertion-sequence) order: two events at the same
// timestamp run in the order they were scheduled. The dispatch loop drains
// whole same-timestamp runs in one batch (one clock write and one heap
// restructure per run, receiver-style), which is where fleet-scale message
// storms spend their time; the (time, seq) contract is unaffected because a
// handler scheduled during a batch always gets a larger sequence number than
// every drained event (or, under a sequence number reserved earlier, a
// strictly later time — see reserve_seq()).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace dif::sim {

/// Simulated time in milliseconds since simulation start.
using TimePoint = double;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now; earlier times are clamped
  /// to now — an event cannot fire in the past).
  void schedule_at(TimePoint t, std::function<void()> fn);

  /// Schedules `fn` `delay_ms` after the current time (negative clamps to 0).
  void schedule_after(double delay_ms, std::function<void()> fn);

  /// Takes the next insertion-sequence number without scheduling anything.
  /// An event later scheduled under it with schedule_at(t, seq, fn) fires
  /// exactly where one scheduled at reservation time would have, provided
  /// it reaches the queue before the dispatcher drains any event ordered
  /// after (t, seq) — e.g. when a handler firing strictly before t schedules
  /// it. SimNetwork's per-link in-flight queues rely on this.
  [[nodiscard]] std::uint64_t reserve_seq() noexcept { return next_seq_++; }
  /// Schedules `fn` at `t` (clamped to now) under a reserved sequence number.
  void schedule_at(TimePoint t, std::uint64_t seq, std::function<void()> fn);

  /// Sequence number of the event whose handler is running (meaningful only
  /// inside a handler; invariant checks use it).
  [[nodiscard]] std::uint64_t firing_seq() const noexcept {
    return batch_pos_ ? batch_[batch_pos_ - 1].seq : 0;
  }

  /// Runs events until the queue drains or `max_events` fire.
  /// Returns the number of events processed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= t, then advances the clock to exactly
  /// t (even if no event fired). Returns the number of events processed.
  std::size_t run_until(TimePoint t);

  /// Fires the single earliest event; returns false when the queue is empty.
  bool step();

  /// Events in the queue. A SimNetwork keeps only the head of each link's
  /// in-flight queue here, so messages queued behind it are not counted
  /// (SimNetwork::in_flight() counts them).
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + (batch_.size() - batch_pos_);
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  /// Dispatch batches executed so far (a batch is one same-timestamp run;
  /// events_processed() / batches_dispatched() is the mean batch size).
  [[nodiscard]] std::uint64_t batches_dispatched() const noexcept {
    return batches_;
  }

  /// Drops all pending events (the clock is left where it is). Safe to call
  /// from inside a handler: the rest of the current batch is dropped too.
  /// Owners of state behind scheduled events (SimNetwork's link queues) see
  /// it through clears().
  void clear();
  /// Number of clear() calls so far.
  [[nodiscard]] std::uint64_t clears() const noexcept { return clears_; }

 private:
  struct Scheduled {
    TimePoint time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Drains the earliest same-timestamp run (at most `limit` events) into
  /// batch_ and executes it. Returns the number of events fired. Events a
  /// handler schedules at the batch timestamp land behind the drained run
  /// (larger seq) and form the next batch. Not re-entrant: handlers may
  /// schedule and clear(), but must not call run()/step() recursively. If a
  /// handler throws, the unfired rest of the batch goes back to the heap
  /// before the exception propagates.
  std::size_t fire_batch(std::size_t limit);

  /// Explicit binary heap (std::push_heap / std::pop_heap) ordered by
  /// (time, seq). An explicit vector — unlike std::priority_queue — lets the
  /// dispatcher move events out without const_cast and lets clear() drop
  /// storage without popping one element at a time.
  std::vector<Scheduled> heap_;
  /// Current dispatch batch; entries before batch_pos_ already fired.
  std::vector<Scheduled> batch_;
  std::size_t batch_pos_ = 0;
  TimePoint now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t clears_ = 0;
};

}  // namespace dif::sim
