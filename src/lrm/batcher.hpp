// Per-segment control-plane batcher for the Information Update Protocol.
//
// A 100-node segment on individual heartbeat timers costs the simulation
// 100 events and the GRM 100 ORB dispatches per update period. The batcher
// collapses both: one timer tick per segment polls every member LRM's
// current_status() (an allocation-free scratch read) and ships the whole
// segment as a single protocol::NodeStatusBatch frame, which the GRM
// applies as a Trader::refresh loop in one dispatch. LUPA sampling ticks
// batch the same way — one event samples every member at the shared cadence
// the per-node timers would have used, so the learned usage models are
// identical.
//
// Semantics deliberately preserved from the unbatched path:
//   * Scheduling decisions do not change: statuses carry the same content
//     (polled at the tick instant) and land via the same Grm::on_update.
//   * Event-driven pushes (NCC verdict flips, restart re-announces) remain
//     individual messages — freshness at the moments that matter.
//   * With reliable updates + a warm standby, the batched frame doubles as
//     the GRM liveness probe; after grm_failure_threshold consecutive
//     misses the batcher rotates itself AND every member (Lrm::adopt_grm)
//     onto the standby, then re-announces at once.
//   * Atomicity is a *feature* of the frame: a partitioned or lossy uplink
//     drops all of a segment's updates for that period, never a prefix, so
//     the GRM's view of a segment is always internally consistent.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "lrm/lrm.hpp"
#include "orb/orb.hpp"
#include "protocol/messages.hpp"
#include "sim/engine.hpp"

namespace integrade::lrm {

struct BatcherOptions {
  /// Heartbeat frame cadence; mirror LrmOptions::update_period.
  SimDuration update_period = 30 * kSecond;
  /// Delay of the first frame. Segment batchers should stagger against each
  /// other deterministically (e.g. period * (i+1) / (segments+1)) so frames
  /// from many segments do not stampede the GRM in lockstep. Negative means
  /// one full period.
  SimDuration initial_stagger = -1;
  /// Drive member LUPAs (LupaOptions::external_ticks) on one shared timer.
  bool drive_lupa = false;
  SimDuration lupa_sample_interval = 5 * kMinute;
  /// Send frames as two-way calls that double as GRM liveness probes and
  /// fail over to the standby after `grm_failure_threshold` misses. Only
  /// effective when start() receives a valid standby ref.
  bool reliable = false;
  int grm_failure_threshold = 3;
  SimDuration call_timeout = 5 * kSecond;
};

class HeartbeatBatcher {
 public:
  HeartbeatBatcher(sim::Engine& engine, orb::Orb& orb, std::int32_t segment,
                   BatcherOptions options);

  /// Register a member LRM (not owned; must outlive the batcher or be
  /// removed by stopping the batcher first). Call before start().
  void add(Lrm* member);

  /// Arm the timers. `standby` may be invalid (no failover target).
  void start(const orb::ObjectRef& grm, const orb::ObjectRef& standby = {});
  void stop();

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] const orb::ObjectRef& grm() const { return grm_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

 private:
  void send_frame();
  void lupa_tick();

  sim::Engine& engine_;
  orb::Orb& orb_;
  std::int32_t segment_;
  BatcherOptions options_;

  std::vector<Lrm*> members_;
  orb::ObjectRef grm_;
  orb::ObjectRef standby_grm_;
  int grm_misses_ = 0;
  /// GRM incarnation stamped on every frame; bumped on failover so the
  /// adopting GRM can drop stale batches still draining from the old
  /// primary (NodeStatusBatch::epoch).
  std::uint64_t epoch_ = 1;

  sim::PeriodicTimer frame_timer_;
  sim::PeriodicTimer lupa_timer_;

  /// Frame scratch, reused across ticks: steady-state heartbeats allocate
  /// nothing beyond the ORB's wire buffer.
  protocol::NodeStatusBatch batch_scratch_;

  MetricRegistry metrics_;
};

}  // namespace integrade::lrm
