// Deterministic discrete-event simulation kernel.
//
// The whole InteGrade grid — nodes, owners, managers, the network — runs as
// callbacks scheduled on one of these engines, on one thread. Events at
// equal timestamps fire in scheduling order (a monotonic sequence number
// breaks ties), which together with the seeded Rng makes every experiment
// bit-reproducible.
//
// The event core is allocation-light: events live in a hand-rolled binary
// heap over a flat vector and are *moved*, never copied, from schedule to
// fire (Event is move-only, so a copy anywhere is a compile error).
// Cancellation state lives in a slab of generation-counted slots reused
// across events — no per-event heap allocation — and handles are a (slot,
// generation) pair that a reused slot automatically invalidates. Cancelled
// events normally drain lazily when they reach the top of the heap; if they
// ever outnumber half the queue the heap is compacted.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace integrade::sim {

class Engine;

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Handles are trivially copyable (slot + generation);
/// one whose event already fired — or whose slot was since reused — is a
/// safe no-op. A handle must not outlive its Engine.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Idempotent.
  void cancel();

  [[nodiscard]] bool active() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t generation)
      : engine_(engine), slot_(slot), generation_(generation) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Time of the executing event, or where the last run left the clock.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (>= now).
  EventHandle schedule_at(SimTime when, std::function<void()> fn);

  /// Schedule `fn` after `delay` (>= 0) from now.
  EventHandle schedule_after(SimDuration delay, std::function<void()> fn);

  /// Run events until the queue drains or `deadline` passes. The clock ends
  /// at min(deadline, last event time). Returns the number of events fired.
  std::int64_t run_until(SimTime deadline);

  /// Run until the queue is empty.
  std::int64_t run() { return run_until(kTimeNever); }

  /// Fire exactly one event if any is due at or before `deadline`. Returns
  /// false when nothing fired. Callers polling state between events
  /// (Grid::run_until_app_done) use this.
  bool step(SimTime deadline = kTimeNever);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::int64_t events_fired() const { return fired_; }

  /// Cancellation slots currently allocated (live events + free list); the
  /// slab's high-water mark, for allocation-regression tests.
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

 private:
  friend class EventHandle;

  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::function<void()> fn;

    Event(SimTime w, std::uint64_t s, std::uint32_t sl, std::function<void()> f)
        : when(w), seq(s), slot(sl), fn(std::move(f)) {}
    // Move-only: the heap must never copy an event (or its closure state).
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;
    Event(Event&&) = default;
    Event& operator=(Event&&) = default;
  };

  struct Slot {
    std::uint32_t generation = 0;
    bool cancelled = false;
  };

  [[nodiscard]] static bool earlier(const Event& a, const Event& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_root();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool slot_active(std::uint32_t slot,
                                 std::uint32_t generation) const;
  void compact();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::int64_t fired_ = 0;
  std::vector<Event> heap_;  // min-heap ordered by (when, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t cancelled_pending_ = 0;  // cancelled events still in heap
};

/// Repeating timer built on Engine: fires `fn` every `period` starting at
/// `start`, until stopped or the owner is destroyed.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start(Engine& engine, SimDuration period, std::function<void()> fn,
             SimDuration initial_delay = -1);
  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm();

  Engine* engine_ = nullptr;
  SimDuration period_ = 0;
  std::function<void()> fn_;
  EventHandle pending_;
  bool running_ = false;
};

}  // namespace integrade::sim
