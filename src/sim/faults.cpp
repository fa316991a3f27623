#include "sim/faults.hpp"

#include <algorithm>
#include <cassert>

#include "common/stats.hpp"

namespace integrade::sim {

namespace {

std::pair<SegmentId, SegmentId> normalized(SegmentId a, SegmentId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

FaultInjector::FaultInjector(Engine& engine, Network& network, Rng rng)
    : engine_(engine), network_(network), rng_(rng) {
  network_.set_faults(this);
}

FaultInjector::~FaultInjector() { network_.set_faults(nullptr); }

void FaultInjector::set_endpoint_handlers(EndpointHandler on_crash,
                                          EndpointHandler on_restart) {
  on_crash_ = std::move(on_crash);
  on_restart_ = std::move(on_restart);
}

void FaultInjector::crash_endpoint(EndpointId endpoint) {
  if (!down_endpoints_.insert(endpoint).second) return;  // already down
  ++stats_.crashes;
  if (on_crash_) on_crash_(endpoint);
}

void FaultInjector::restart_endpoint(EndpointId endpoint) {
  if (down_endpoints_.erase(endpoint) == 0) return;  // was not down
  ++stats_.restarts;
  if (on_restart_) on_restart_(endpoint);
}

void FaultInjector::partition(SegmentId a, SegmentId b) {
  assert(a != b && "a segment cannot be partitioned from itself");
  if (!partitions_.insert(normalized(a, b)).second) return;
  ++stats_.partitions;
}

void FaultInjector::heal(SegmentId a, SegmentId b) {
  if (partitions_.erase(normalized(a, b)) == 0) return;
  ++stats_.heals;
}

void FaultInjector::set_uplink_down(SegmentId segment, bool down) {
  if (down) {
    downed_uplinks_.insert(segment);
  } else {
    downed_uplinks_.erase(segment);
  }
}

bool FaultInjector::reachable(SegmentId a, SegmentId b) const {
  if (a == b) return true;
  if (downed_uplinks_.contains(a) || downed_uplinks_.contains(b)) return false;
  return !partitions_.contains(normalized(a, b));
}

void FaultInjector::run(const FaultScript& script) {
  for (const FaultEvent& event : script) {
    engine_.schedule_at(event.at, [this, event] { apply(event); });
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  using Kind = FaultEvent::Kind;
  switch (event.kind) {
    case Kind::kCrash:
      crash_endpoint(event.endpoint);
      if (event.duration > 0) {
        engine_.schedule_after(event.duration,
                               [this, ep = event.endpoint] { restart_endpoint(ep); });
      }
      break;
    case Kind::kRestart:
      restart_endpoint(event.endpoint);
      break;
    case Kind::kPartition:
      partition(event.a, event.b);
      if (event.duration > 0) {
        engine_.schedule_after(event.duration,
                               [this, a = event.a, b = event.b] { heal(a, b); });
      }
      break;
    case Kind::kHeal:
      heal(event.a, event.b);
      break;
    case Kind::kUplinkDown:
      set_uplink_down(event.a, true);
      if (event.duration > 0) {
        engine_.schedule_after(event.duration,
                               [this, a = event.a] { set_uplink_down(a, false); });
      }
      break;
    case Kind::kUplinkUp:
      set_uplink_down(event.a, false);
      break;
    case Kind::kLoss:
      set_loss(event.p);
      break;
    case Kind::kDuplication:
      set_duplication(event.p);
      break;
    case Kind::kDelay:
      set_extra_delay(event.duration);
      break;
  }
}

void FaultInjector::enable_crash_churn(std::vector<EndpointId> pool,
                                       double crashes_per_minute,
                                       SimDuration mean_downtime,
                                       SimTime until) {
  assert(crashes_per_minute > 0 && !pool.empty());
  churn_pool_ = std::move(pool);
  churn_per_minute_ = crashes_per_minute;
  churn_mean_downtime_ = mean_downtime;
  churn_until_ = until;
  const double mean_gap_s = 60.0 / churn_per_minute_;
  engine_.schedule_after(from_seconds(rng_.exponential(mean_gap_s)),
                         [this] { churn_tick(); });
}

void FaultInjector::churn_tick() {
  if (engine_.now() >= churn_until_) return;
  // Pick a live endpoint from the pool; if all are down, skip this arrival.
  std::vector<EndpointId> up;
  up.reserve(churn_pool_.size());
  for (EndpointId ep : churn_pool_) {
    if (!endpoint_down(ep)) up.push_back(ep);
  }
  if (!up.empty()) {
    const auto idx = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(up.size()) - 1));
    const EndpointId victim = up[idx];
    const SimDuration downtime = std::max<SimDuration>(
        kSecond, from_seconds(rng_.exponential(to_seconds(churn_mean_downtime_))));
    crash_endpoint(victim);
    engine_.schedule_after(downtime, [this, victim] { restart_endpoint(victim); });
  }
  const double mean_gap_s = 60.0 / churn_per_minute_;
  engine_.schedule_after(from_seconds(rng_.exponential(mean_gap_s)),
                         [this] { churn_tick(); });
}

FaultInjector::SendPlan FaultInjector::plan_send(EndpointId src,
                                                 SegmentId src_segment,
                                                 EndpointId dst,
                                                 SegmentId dst_segment) {
  SendPlan plan;
  if (endpoint_down(src) || endpoint_down(dst)) {
    ++stats_.endpoint_drops;
    plan.copies = 0;
    return plan;
  }
  if (!reachable(src_segment, dst_segment)) {
    ++stats_.partition_drops;
    plan.copies = 0;
    return plan;
  }
  // Draw only for perturbations that are actually on, so e.g. a pure
  // crash-churn scenario consumes no loss/dup randomness.
  if (loss_ > 0.0 && rng_.bernoulli(loss_)) {
    ++stats_.loss_drops;
    plan.copies = 0;
    return plan;
  }
  if (duplication_ > 0.0 && rng_.bernoulli(duplication_)) {
    ++stats_.duplicates;
    plan.copies = 2;
  }
  if (delay_mean_ > 0) {
    plan.extra_delay = from_seconds(rng_.exponential(to_seconds(delay_mean_)));
    if (plan.extra_delay > 0) ++stats_.delayed;
  }
  return plan;
}

void FaultInjector::export_metrics(MetricRegistry& out) const {
  out.counter("crashes").add(stats_.crashes);
  out.counter("restarts").add(stats_.restarts);
  out.counter("partitions").add(stats_.partitions);
  out.counter("heals").add(stats_.heals);
  out.counter("endpoint_drops").add(stats_.endpoint_drops);
  out.counter("partition_drops").add(stats_.partition_drops);
  out.counter("loss_drops").add(stats_.loss_drops);
  out.counter("duplicates").add(stats_.duplicates);
  out.counter("delayed").add(stats_.delayed);
}

}  // namespace integrade::sim
