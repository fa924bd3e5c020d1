#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace dif::sim {

void Simulator::schedule_at(TimePoint t, std::function<void()> fn) {
  schedule_at(t, reserve_seq(), std::move(fn));
}

void Simulator::schedule_at(TimePoint t, std::uint64_t seq,
                            std::function<void()> fn) {
  DIF_ASSERT(seq < next_seq_, "Simulator: sequence number was not reserved");
  heap_.push_back({std::max(t, now_), seq, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::schedule_after(double delay_ms, std::function<void()> fn) {
  schedule_at(now_ + std::max(delay_ms, 0.0), std::move(fn));
}

std::size_t Simulator::fire_batch(std::size_t limit) {
  if (heap_.empty() || limit == 0) return 0;
  batch_.clear();
  batch_pos_ = 0;
  const TimePoint t = heap_.front().time;
  // Drain the whole same-timestamp run up front: handlers that schedule at
  // time t get sequence numbers larger than everything drained here, so
  // executing the drained run first is exactly (time, seq) order. A capped
  // drain leaves the tail of the run in the heap; it fires (still in seq
  // order) on the next call.
  while (!heap_.empty() && heap_.front().time == t && batch_.size() < limit) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    batch_.push_back(std::move(heap_.back()));
    heap_.pop_back();
  }
  now_ = t;
  ++batches_;
  std::size_t fired = 0;
  try {
    while (batch_pos_ < batch_.size()) {
      auto fn = std::move(batch_[batch_pos_].fn);
      ++batch_pos_;
      ++processed_;
      ++fired;
      fn();  // may schedule new events or clear() the rest of the batch
    }
  } catch (...) {
    // A handler threw: hand the unfired rest of the batch back to the heap.
    // Each keeps its (time, seq), so a later run() fires it in order.
    for (std::size_t i = batch_pos_; i < batch_.size(); ++i) {
      heap_.push_back(std::move(batch_[i]));
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    batch_.clear();
    batch_pos_ = 0;
    throw;
  }
  batch_.clear();
  batch_pos_ = 0;
  return fired;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (!heap_.empty() && fired < max_events)
    fired += fire_batch(max_events - fired);
  return fired;
}

std::size_t Simulator::run_until(TimePoint t) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.front().time <= t)
    fired += fire_batch(SIZE_MAX);
  now_ = std::max(now_, t);
  return fired;
}

bool Simulator::step() { return fire_batch(1) == 1; }

void Simulator::clear() {
  ++clears_;
  heap_.clear();
  // Keep the already-fired prefix (their fns are moved-out shells) and drop
  // the unfired tail, so an in-flight fire_batch loop stops immediately.
  batch_.resize(batch_pos_);
}

}  // namespace dif::sim
