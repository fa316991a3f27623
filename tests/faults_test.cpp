// FaultInjector: crashes, partitions, loss/duplication, scripting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace integrade::sim {
namespace {

class FaultsFixture : public ::testing::Test {
 protected:
  FaultsFixture() : network(engine, Rng(1)), faults(engine, network, Rng(2)) {
    network.set_jitter(0.0);
    SegmentSpec lan;
    lan.latency = 100;
    lan.uplink_latency = 1000;
    seg_a = network.add_segment(lan);
    seg_b = network.add_segment(lan);
    network.attach(1, seg_a);
    network.attach(2, seg_a);
    network.attach(3, seg_b);
  }

  int deliveries(EndpointId src, EndpointId dst, int sends) {
    int count = 0;
    for (int i = 0; i < sends; ++i) {
      network.send(src, dst, 10, [&count] { ++count; });
    }
    engine.run();
    return count;
  }

  Engine engine;
  Network network;
  FaultInjector faults;
  SegmentId seg_a{};
  SegmentId seg_b{};
};

TEST_F(FaultsFixture, CrashedEndpointSendsAndReceivesNothing) {
  faults.crash_endpoint(2);
  EXPECT_TRUE(faults.endpoint_down(2));
  EXPECT_EQ(deliveries(1, 2, 3), 0);  // toward the dead node
  EXPECT_EQ(deliveries(2, 1, 3), 0);  // from the dead node
  EXPECT_EQ(deliveries(1, 3, 3), 3);  // unrelated traffic unaffected
  EXPECT_EQ(faults.stats().endpoint_drops, 6);
}

TEST_F(FaultsFixture, RestartRestoresTraffic) {
  faults.crash_endpoint(2);
  faults.restart_endpoint(2);
  EXPECT_FALSE(faults.endpoint_down(2));
  EXPECT_EQ(deliveries(1, 2, 3), 3);
  EXPECT_EQ(faults.stats().crashes, 1);
  EXPECT_EQ(faults.stats().restarts, 1);
}

TEST_F(FaultsFixture, CrashMidFlightDropsAtDelivery) {
  // The message passes the send-time check, then the destination dies
  // before arrival: delivery must not happen.
  bool delivered = false;
  network.send(1, 3, 1'250'000, [&delivered] { delivered = true; });
  engine.schedule_after(1, [this] { faults.crash_endpoint(3); });
  engine.run();
  EXPECT_FALSE(delivered);
}

TEST_F(FaultsFixture, CrashHandlersFire) {
  std::vector<EndpointId> crashed, restarted;
  faults.set_endpoint_handlers(
      [&crashed](EndpointId ep) { crashed.push_back(ep); },
      [&restarted](EndpointId ep) { restarted.push_back(ep); });
  faults.crash_endpoint(7);
  faults.crash_endpoint(7);  // idempotent: one handler call
  faults.restart_endpoint(7);
  EXPECT_EQ(crashed, (std::vector<EndpointId>{7}));
  EXPECT_EQ(restarted, (std::vector<EndpointId>{7}));
}

TEST_F(FaultsFixture, PartitionSeversInterSegmentTrafficOnly) {
  faults.partition(seg_a, seg_b);
  EXPECT_FALSE(faults.reachable(seg_a, seg_b));
  EXPECT_TRUE(faults.reachable(seg_a, seg_a));
  EXPECT_EQ(deliveries(1, 3, 2), 0);  // crosses the partition
  EXPECT_EQ(deliveries(3, 1, 2), 0);  // both directions
  EXPECT_EQ(deliveries(1, 2, 2), 2);  // intra-segment unaffected
  EXPECT_EQ(faults.stats().partition_drops, 4);

  faults.heal(seg_a, seg_b);
  EXPECT_EQ(deliveries(1, 3, 2), 2);
}

TEST_F(FaultsFixture, UplinkDownIsolatesSegment) {
  faults.set_uplink_down(seg_b, true);
  EXPECT_EQ(deliveries(1, 3, 2), 0);
  EXPECT_EQ(deliveries(1, 2, 2), 2);  // intra-segment unaffected
  faults.set_uplink_down(seg_b, false);
  EXPECT_EQ(deliveries(1, 3, 2), 2);
}

TEST_F(FaultsFixture, LossDropsRoughlyTheConfiguredFraction) {
  faults.set_loss(0.3);
  const int delivered = deliveries(1, 2, 2000);
  EXPECT_GT(delivered, 1250);
  EXPECT_LT(delivered, 1550);
  EXPECT_EQ(faults.stats().loss_drops, 2000 - delivered);
}

TEST_F(FaultsFixture, DuplicationDeliversTwice) {
  faults.set_duplication(1.0);
  EXPECT_EQ(deliveries(1, 2, 5), 10);
  EXPECT_EQ(faults.stats().duplicates, 5);
}

TEST_F(FaultsFixture, ExtraDelayDefersDelivery) {
  SimTime base_arrival = 0;
  network.send(1, 2, 10, [&] { base_arrival = engine.now(); });
  engine.run();
  ASSERT_GT(base_arrival, 0);

  faults.set_extra_delay(5 * kSecond);
  SimTime delayed_arrival = 0;
  const SimTime sent_at = engine.now();
  network.send(1, 2, 10, [&] { delayed_arrival = engine.now(); });
  engine.run();
  EXPECT_GT(delayed_arrival - sent_at, base_arrival);
  EXPECT_EQ(faults.stats().delayed, 1);
}

TEST_F(FaultsFixture, ScriptSchedulesAndAutoHeals) {
  FaultScript script;
  script.push_back({.at = 10 * kSecond,
                    .kind = FaultEvent::Kind::kCrash,
                    .endpoint = 2,
                    .duration = 5 * kSecond});
  script.push_back({.at = 20 * kSecond,
                    .kind = FaultEvent::Kind::kPartition,
                    .a = 0,
                    .b = 1,
                    .duration = 5 * kSecond});
  faults.run(script);

  engine.run_until(12 * kSecond);
  EXPECT_TRUE(faults.endpoint_down(2));
  engine.run_until(16 * kSecond);
  EXPECT_FALSE(faults.endpoint_down(2));  // auto-restart

  engine.run_until(22 * kSecond);
  EXPECT_FALSE(faults.reachable(seg_a, seg_b));
  engine.run_until(26 * kSecond);
  EXPECT_TRUE(faults.reachable(seg_a, seg_b));  // auto-heal
}

TEST_F(FaultsFixture, CrashChurnIsBoundedAndBalanced) {
  faults.enable_crash_churn({1, 2, 3}, /*crashes_per_minute=*/6.0,
                            /*mean_downtime=*/30 * kSecond,
                            /*until=*/10 * kMinute);
  engine.run_until(10 * kMinute);
  EXPECT_GT(faults.stats().crashes, 20);
  // Every crash eventually restarts.
  engine.run();
  EXPECT_EQ(faults.stats().restarts, faults.stats().crashes);
  EXPECT_EQ(faults.endpoints_down(), 0u);
}

TEST(FaultsDeterminism, SameSeedSameDropPattern) {
  auto trace = [](std::uint64_t seed) {
    Engine engine;
    Network network(engine, Rng(1));
    network.set_jitter(0.0);
    const SegmentId seg = network.add_segment(SegmentSpec{});
    network.attach(1, seg);
    network.attach(2, seg);
    FaultInjector faults(engine, network, Rng(seed));
    faults.set_loss(0.2);
    std::vector<int> delivered;
    for (int i = 0; i < 200; ++i) {
      network.send(1, 2, 10, [&delivered, i] { delivered.push_back(i); });
    }
    engine.run();
    return delivered;
  };
  EXPECT_EQ(trace(42), trace(42));
  EXPECT_NE(trace(42), trace(43));
}

namespace {

/// Two-segment network harness with scripted senders in both directions and
/// per-destination delivery logs.
struct LossRun {
  std::vector<int> to_ep2;
  std::vector<int> to_ep1;
  std::int64_t drops = 0;
};

LossRun loss_run(double jitter) {
  Engine engine;
  Network network(engine, Rng(1));
  network.set_jitter(jitter);
  SegmentSpec lan;
  lan.latency = 100;
  lan.uplink_latency = 1000;
  const SegmentId seg_a = network.add_segment(lan);
  const SegmentId seg_b = network.add_segment(lan);
  network.attach(1, seg_a);
  network.attach(2, seg_b);

  FaultInjector faults(engine, network, Rng(99));
  faults.set_loss(0.3);

  LossRun out;
  for (int i = 0; i < 150; ++i) {
    engine.schedule_at(1 + i * 10, [&network, &out, i] {
      network.send(1, 2, 10, [&out, i] { out.to_ep2.push_back(i); });
    });
    engine.schedule_at(1 + i * 10, [&network, &out, i] {
      network.send(2, 1, 10, [&out, i] { out.to_ep1.push_back(i); });
    });
  }
  engine.run();
  out.drops = faults.stats().loss_drops;
  return out;
}

}  // namespace

TEST(FaultsDeterminism, LossPlanStreamIsIsolatedFromJitterStream) {
  // Jitter draws from the Network's own Rng and loss draws from the
  // injector's, so enabling jitter must not touch the loss plan: the same
  // messages drop whether or not jitter consumes randomness, only delivery
  // times (and hence arrival order) move.
  const LossRun no_jitter = loss_run(0.0);
  const LossRun jitter = loss_run(0.2);
  EXPECT_GT(no_jitter.drops, 0);
  EXPECT_FALSE(no_jitter.to_ep1.empty());
  EXPECT_FALSE(no_jitter.to_ep2.empty());
  EXPECT_EQ(no_jitter.drops, jitter.drops);
  auto sorted = [](std::vector<int> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(no_jitter.to_ep1), sorted(jitter.to_ep1));
  EXPECT_EQ(sorted(no_jitter.to_ep2), sorted(jitter.to_ep2));
}

TEST(FaultsBatchedFrames, PartitionDropsWholeSegmentFrameAtomically) {
  // With per-segment heartbeat batching the atomicity of the frame is a
  // feature: a partitioned segment loses ALL of its statuses for a period,
  // never a prefix. Observable from the manager: while the far segment is
  // cut off, the GRM's update counter advances only in whole near-segment
  // frames — every batch that lands carries exactly the four near nodes.
  core::Grid grid(151);
  auto config = core::quiet_cluster(8, 151, 1000.0, "atomic");
  SegmentSpec far = config.segments.front();
  far.name = "atomic-far";
  config.segments.push_back(far);
  for (int i = 4; i < 8; ++i) {
    config.nodes[static_cast<std::size_t>(i)].segment = 1;
  }
  config.batch_heartbeats = true;
  config.lrm.update_period = 10 * kSecond;
  auto& cluster = grid.add_cluster(config);
  FaultInjector faults(grid.engine(), grid.network(), Rng(3));

  // Past the initial announces, NCC grace flips, and batcher staggers:
  // steady state is periodic frames only.
  grid.run_for(3 * kMinute);

  const auto updates_before =
      cluster.grm().metrics().counter_value("status_updates_received");
  const auto batches_before =
      cluster.grm().metrics().counter_value("status_batches_received");
  auto* far_batcher = cluster.batcher(1);
  ASSERT_NE(far_batcher, nullptr);
  const auto far_frames_before =
      far_batcher->metrics().counter_value("status_frames_sent");

  faults.partition(cluster.segment_id(0), cluster.segment_id(1));
  grid.run_for(100 * kSecond);  // ten update periods

  const auto updates =
      cluster.grm().metrics().counter_value("status_updates_received") -
      updates_before;
  const auto batches =
      cluster.grm().metrics().counter_value("status_batches_received") -
      batches_before;
  // The manager node lives on segment 0: only near-segment frames arrive,
  // each one whole. No partial frame can exist.
  EXPECT_GT(batches, 0);
  EXPECT_EQ(updates, batches * 4);
  // The far batcher kept sending; the partition ate every frame in one
  // piece rather than letting single statuses leak through.
  EXPECT_GT(far_batcher->metrics().counter_value("status_frames_sent"),
            far_frames_before);
  EXPECT_GT(faults.stats().partition_drops, 0);

  // Healed: the far segment's next frame restores all four nodes at once.
  faults.heal(cluster.segment_id(0), cluster.segment_id(1));
  const auto healed_before =
      cluster.grm().metrics().counter_value("status_updates_received");
  grid.run_for(30 * kSecond);
  EXPECT_GE(cluster.grm().metrics().counter_value("status_updates_received") -
                healed_before,
            8);
}

TEST(FaultsLifetime, DetachingInjectorRestoresCleanNetwork) {
  Engine engine;
  Network network(engine, Rng(1));
  const SegmentId seg = network.add_segment(SegmentSpec{});
  network.attach(1, seg);
  network.attach(2, seg);
  {
    FaultInjector faults(engine, network, Rng(2));
    faults.set_loss(1.0);
    bool delivered = false;
    network.send(1, 2, 10, [&delivered] { delivered = true; });
    engine.run();
    EXPECT_FALSE(delivered);
  }
  // Injector destroyed: the network is whole again.
  bool delivered = false;
  network.send(1, 2, 10, [&delivered] { delivered = true; });
  engine.run();
  EXPECT_TRUE(delivered);
}

}  // namespace
}  // namespace integrade::sim
