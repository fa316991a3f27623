#include "sim/network.hpp"

#include <algorithm>
#include <cassert>

#include "sim/faults.hpp"

namespace integrade::sim {

SegmentId Network::add_segment(SegmentSpec spec) {
  assert(spec.bandwidth > 0 && spec.uplink_bandwidth > 0);
  segments_.push_back(std::move(spec));
  segment_bytes_.push_back(0);
  return static_cast<SegmentId>(segments_.size() - 1);
}

void Network::attach(EndpointId endpoint, SegmentId segment) {
  assert(segment >= 0 && static_cast<std::size_t>(segment) < segments_.size());
  assert(!endpoint_segment_.contains(endpoint) && "endpoint already attached");
  endpoint_segment_[endpoint] = segment;
}

bool Network::attached(EndpointId endpoint) const {
  return endpoint_segment_.contains(endpoint);
}

SegmentId Network::segment_of(EndpointId endpoint) const {
  auto it = endpoint_segment_.find(endpoint);
  assert(it != endpoint_segment_.end());
  return it->second;
}

const SegmentSpec& Network::segment(SegmentId id) const {
  return segments_.at(static_cast<std::size_t>(id));
}

void Network::detach(EndpointId endpoint) { endpoint_segment_.erase(endpoint); }

BytesPerSec Network::path_bandwidth(EndpointId a, EndpointId b) const {
  const SegmentId sa = segment_of(a);
  const SegmentId sb = segment_of(b);
  const auto& seg_a = segments_[static_cast<std::size_t>(sa)];
  if (sa == sb) return seg_a.bandwidth;
  const auto& seg_b = segments_[static_cast<std::size_t>(sb)];
  return std::min({seg_a.bandwidth, seg_a.uplink_bandwidth, seg_b.uplink_bandwidth,
                   seg_b.bandwidth});
}

SimDuration Network::path_latency(EndpointId a, EndpointId b) const {
  const SegmentId sa = segment_of(a);
  const SegmentId sb = segment_of(b);
  const auto& seg_a = segments_[static_cast<std::size_t>(sa)];
  if (sa == sb) return seg_a.latency;
  const auto& seg_b = segments_[static_cast<std::size_t>(sb)];
  return seg_a.latency + seg_a.uplink_latency + seg_b.uplink_latency + seg_b.latency;
}

void Network::send(EndpointId src, EndpointId dst, Bytes bytes,
                   std::function<void()> on_delivered) {
  assert(bytes >= 0);
  if (!attached(src)) return;  // sender already gone; nothing leaves the NIC
  if (!attached(dst)) return;  // destination unknown: drop (ORB times out)

  const SegmentId sa = segment_of(src);
  const SegmentId sb = segment_of(dst);

  // Fault layer: crashed endpoints, partitions, loss, duplication, delay.
  FaultInjector::SendPlan plan;
  if (faults_ != nullptr) {
    plan = faults_->plan_send(src, sa, dst, sb);
    if (plan.copies == 0) return;
  }

  const BytesPerSec bw = path_bandwidth(src, dst);
  const SimDuration latency = path_latency(src, dst);

  double transfer_s = static_cast<double>(bytes) / bw;
  if (jitter_ > 0.0) transfer_s *= 1.0 + rng_.uniform(0.0, jitter_);
  const SimDuration delay = latency + from_seconds(transfer_s) + plan.extra_delay;

  ++stats_.messages;
  stats_.bytes += bytes;
  segment_bytes_[static_cast<std::size_t>(sa)] += bytes;
  if (sa != sb) {
    segment_bytes_[static_cast<std::size_t>(sb)] += bytes;
    backbone_bytes_ += bytes;
  }

  auto deliver = [this, src, dst](const std::function<void()>& fn) {
    // Deliver only if both ends are still attached at arrival time: a
    // detached source means the message died with the sender's NIC, and a
    // crashed endpoint (either side) kills it too.
    if (!attached(src) || !attached(dst)) return;
    if (faults_ != nullptr &&
        (faults_->endpoint_down(src) || faults_->endpoint_down(dst))) {
      return;
    }
    fn();
  };

  const SimTime arrival = engine_.now() + delay;
  if (plan.copies > 1) {
    // Duplicate copy shares the delivery predicate but not the closure.
    engine_.schedule_at(arrival, [deliver, fn = on_delivered] { deliver(fn); });
  }
  engine_.schedule_at(arrival,
                      [deliver, fn = std::move(on_delivered)] { deliver(fn); });
}

}  // namespace integrade::sim
