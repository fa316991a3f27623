#include "sim/engine.hpp"

#include <cassert>
#include <utility>

namespace integrade::sim {
namespace {

/// Saturating add on the simulation clock: near-kTimeNever deadlines must
/// clamp, not wrap.
SimTime sat_add(SimTime a, SimDuration b) {
  if (a > 0 && b > kTimeNever - a) return kTimeNever;
  return a + b;
}

}  // namespace

// ---------------------------------------------------------------------------
// EventHandle
// ---------------------------------------------------------------------------

void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel_slot(slot_, generation_);
}

bool EventHandle::active() const {
  return engine_ != nullptr && engine_->slot_active(slot_, generation_);
}

// ---------------------------------------------------------------------------
// Cancellation slab
// ---------------------------------------------------------------------------

std::uint32_t Engine::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].cancelled = false;
    return slot;
  }
  slots_.push_back(Slot{});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  // Bumping the generation invalidates every outstanding handle to this
  // slot's previous tenant before the slot is handed to a new event.
  ++slots_[slot].generation;
  slots_[slot].cancelled = false;
  free_slots_.push_back(slot);
}

void Engine::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != generation || s.cancelled) return;
  s.cancelled = true;
  ++cancelled_pending_;
  // Lazy compaction: a queue that is mostly tombstones wastes heap work and
  // memory, so rebuild once cancellations outnumber live events.
  if (cancelled_pending_ * 2 > heap_.size() && heap_.size() >= 64) compact();
}

bool Engine::slot_active(std::uint32_t slot, std::uint32_t generation) const {
  return slot < slots_.size() && slots_[slot].generation == generation &&
         !slots_[slot].cancelled;
}

void Engine::compact() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (slots_[heap_[i].slot].cancelled) {
      release_slot(heap_[i].slot);
      continue;
    }
    if (out != i) heap_[out] = std::move(heap_[i]);
    ++out;
  }
  heap_.erase(heap_.begin() + static_cast<std::ptrdiff_t>(out), heap_.end());
  cancelled_pending_ = 0;
  // Floyd heapify: O(n), and pop order is governed solely by the total
  // (when, seq) order, so the rebuild cannot perturb replay determinism.
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

// ---------------------------------------------------------------------------
// Binary heap (min on (when, seq); events are moved, never copied)
// ---------------------------------------------------------------------------

void Engine::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    std::size_t least = left;
    if (right < n && earlier(heap_[right], heap_[left])) least = right;
    if (!earlier(heap_[least], heap_[i])) break;
    std::swap(heap_[i], heap_[least]);
    i = least;
  }
}

void Engine::pop_root() {
  if (heap_.size() > 1) {
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Scheduling and dispatch
// ---------------------------------------------------------------------------

EventHandle Engine::schedule_at(SimTime when, std::function<void()> fn) {
  assert(when >= now_ && "cannot schedule in the past");
  const std::uint32_t slot = acquire_slot();
  heap_.emplace_back(when, next_seq_++, slot, std::move(fn));
  sift_up(heap_.size() - 1);
  return EventHandle(this, slot, slots_[slot].generation);
}

EventHandle Engine::schedule_after(SimDuration delay, std::function<void()> fn) {
  assert(delay >= 0);
  return schedule_at(sat_add(now_, delay), std::move(fn));
}

bool Engine::step(SimTime deadline) {
  while (!heap_.empty()) {
    Event& top = heap_.front();
    if (slots_[top.slot].cancelled) {
      --cancelled_pending_;
      release_slot(top.slot);
      pop_root();
      continue;
    }
    if (top.when > deadline) return false;
    now_ = top.when;
    ++fired_;
    // Move the closure out and retire the event *before* running it: the
    // callback may schedule, cancel, or compact freely.
    std::function<void()> fn = std::move(top.fn);
    release_slot(top.slot);
    pop_root();
    fn();
    return true;
  }
  return false;
}

std::int64_t Engine::run_until(SimTime deadline) {
  std::int64_t n = 0;
  while (step(deadline)) ++n;
  if (deadline != kTimeNever && deadline > now_) now_ = deadline;
  return n;
}

// ---------------------------------------------------------------------------
// PeriodicTimer
// ---------------------------------------------------------------------------

void PeriodicTimer::start(Engine& engine, SimDuration period,
                          std::function<void()> fn, SimDuration initial_delay) {
  stop();
  assert(period > 0);
  engine_ = &engine;
  period_ = period;
  fn_ = std::move(fn);
  running_ = true;
  pending_ = engine_->schedule_after(initial_delay >= 0 ? initial_delay : period_,
                                     [this] { arm(); });
}

void PeriodicTimer::arm() {
  if (!running_) return;
  // Re-arm before firing so fn_ may call stop() and win.
  pending_ = engine_->schedule_after(period_, [this] { arm(); });
  fn_();
}

void PeriodicTimer::stop() {
  running_ = false;
  pending_.cancel();
}

}  // namespace integrade::sim
