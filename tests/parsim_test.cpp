// Sharded parallel simulation kernel: windows, lookahead, cross-shard
// traffic, global events — and the crown-jewel property that worker thread
// count never changes a single result.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace integrade::sim {
namespace {

// ---------------------------------------------------------------------------
// Engine-level determinism: a scripted workload of per-shard event chains
// with periodic cross-shard sends and global events must produce the exact
// same per-shard logs for every worker thread count. Logs are per-shard
// vectors (only the worker executing that shard appends), so recording is
// race-free by construction.
// ---------------------------------------------------------------------------

struct ScriptResult {
  std::vector<std::vector<std::string>> shard_log;
  std::vector<std::string> global_log;
  std::int64_t fired = 0;
  std::int64_t windows = 0;
  std::vector<SimTime> clocks;
};

ScriptResult run_script(std::size_t shards, std::size_t threads) {
  constexpr SimDuration kLookahead = 50;
  constexpr SimTime kEnd = 2'000;

  Engine engine;
  engine.configure_shards(shards);
  engine.set_lookahead(kLookahead);
  engine.set_worker_threads(threads);

  ScriptResult out;
  out.shard_log.resize(shards);

  // Each shard runs a self-rescheduling chain with a shard-specific stride;
  // every third hop it throws an event across to the next shard.
  struct Chain {
    Engine* engine;
    ScriptResult* out;
    std::uint32_t shard;
    std::size_t shards;
    int hops = 0;

    void fire(SimTime at) {
      out->shard_log[shard].push_back("s" + std::to_string(shard) + "@" +
                                      std::to_string(at));
      ++hops;
      if (hops % 3 == 0) {
        const auto dst = static_cast<std::uint32_t>((shard + 1) % shards);
        const std::uint32_t src = shard;
        engine->schedule_on(dst, at + kLookahead + 3,
                            [this, src, dst, at] {
                              out->shard_log[dst].push_back(
                                  "x" + std::to_string(src) + ">" +
                                  std::to_string(dst) + "@" +
                                  std::to_string(at + kLookahead + 3));
                            });
      }
      const SimTime next = at + 7 + shard;
      if (next < kEnd) {
        engine->schedule_at(next, [this, next] { fire(next); });
      }
    }
  };

  std::vector<Chain> chains(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    chains[s] = Chain{&engine, &out, s, shards};
    Engine::ShardScope scope(engine, s);
    engine.schedule_at(s + 1, [&chains, s] { chains[s].fire(s + 1); });
  }
  for (SimTime t = 100; t < kEnd; t += 333) {
    engine.schedule_global_at(
        t, [&out, t] { out.global_log.push_back("g@" + std::to_string(t)); });
  }

  engine.run();
  out.fired = engine.events_fired();
  out.windows = engine.windows_run();
  for (std::uint32_t s = 0; s < shards; ++s) {
    out.clocks.push_back(engine.shard_now(s));
  }
  return out;
}

TEST(ParSim, ThreadCountNeverChangesResults) {
  const ScriptResult t1 = run_script(4, 1);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const ScriptResult tn = run_script(4, threads);
    EXPECT_EQ(tn.shard_log, t1.shard_log) << "threads=" << threads;
    EXPECT_EQ(tn.global_log, t1.global_log) << "threads=" << threads;
    EXPECT_EQ(tn.fired, t1.fired) << "threads=" << threads;
    EXPECT_EQ(tn.windows, t1.windows) << "threads=" << threads;
    EXPECT_EQ(tn.clocks, t1.clocks) << "threads=" << threads;
  }
  // The script really exercised every shard and the cross-shard path.
  for (const auto& log : t1.shard_log) EXPECT_GT(log.size(), 50u);
  EXPECT_FALSE(t1.global_log.empty());
}

TEST(ParSim, SingleShardMatchesLegacySemantics) {
  // A 1-shard engine is the historical engine: step() works, windows stay
  // at zero, and schedule_global_* degrades to plain scheduling.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_global_at(10, [&] { order.push_back(2); });
  engine.schedule_at(20, [&] { order.push_back(3); });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.now(), 10);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.windows_run(), 0);
}

// ---------------------------------------------------------------------------
// Window mechanics.
// ---------------------------------------------------------------------------

TEST(ParSim, GlobalEventsRunBeforeShardEventsAtTheSameTime) {
  Engine engine;
  engine.configure_shards(2);
  engine.set_lookahead(100);

  std::vector<std::string> order;  // appended only at t=100 +- one window:
  // shard events at 100 both land in the same barrier-separated windows, and
  // the global runs with every shard paused, so this vector is never written
  // concurrently (global batch) or is written by one shard per slot.
  std::vector<std::vector<std::string>> shard_seen(2);
  for (std::uint32_t s = 0; s < 2; ++s) {
    Engine::ShardScope scope(engine, s);
    engine.schedule_at(100, [&shard_seen, s] {
      shard_seen[s].push_back("shard" + std::to_string(s));
    });
  }
  bool global_first = false;
  engine.schedule_global_at(100, [&] {
    global_first = shard_seen[0].empty() && shard_seen[1].empty();
    order.push_back("global");
  });
  engine.run();
  EXPECT_TRUE(global_first);
  EXPECT_EQ(engine.now(), 100);
  EXPECT_EQ(shard_seen[0].size() + shard_seen[1].size(), 2u);
}

TEST(ParSim, CrossShardScheduleRespectsLookaheadAndDelivers) {
  Engine engine;
  engine.configure_shards(2);
  engine.set_lookahead(100);

  SimTime delivered_at = -1;
  std::uint32_t delivered_on = 99;
  {
    Engine::ShardScope scope(engine, 0);
    engine.schedule_at(10, [&] {
      engine.schedule_on(1, engine.now() + 100, [&] {
        delivered_at = engine.now();
        delivered_on = engine.current_shard();
      });
    });
  }
  engine.run();
  EXPECT_EQ(delivered_at, 110);
  EXPECT_EQ(delivered_on, 1u);
}

TEST(ParSim, RunUntilAdvancesAllShardClocksToDeadline) {
  Engine engine;
  engine.configure_shards(3);
  engine.set_lookahead(10);
  {
    Engine::ShardScope scope(engine, 1);
    engine.schedule_at(25, [] {});
  }
  engine.run_until(1'000);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(engine.shard_now(s), 1'000) << "shard " << s;
  }
  EXPECT_EQ(engine.now(), 1'000);
  EXPECT_TRUE(engine.empty());
}

// ---------------------------------------------------------------------------
// Cross-shard cancellation (satellite: slab compaction + commit horizon).
// ---------------------------------------------------------------------------

TEST(ParSim, CrossShardCancelBeforeCommitHorizonStopsTheEvent) {
  Engine engine;
  engine.configure_shards(2);
  engine.set_lookahead(100);

  bool fired = false;
  EventHandle victim;
  {
    Engine::ShardScope scope(engine, 1);
    victim = engine.schedule_at(500, [&] { fired = true; });
  }
  {
    Engine::ShardScope scope(engine, 0);
    // Fires in the first window (horizon 110); the cancel is buffered in
    // shard 0's outbox and applied at the barrier — long before t=500.
    engine.schedule_at(10, [&] { victim.cancel(); });
  }
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.events_fired(), 1);
}

TEST(ParSim, CrossShardCancelAfterFireInSameWindowIsANoOp) {
  Engine engine;
  engine.configure_shards(2);
  engine.set_lookahead(100);

  bool fired = false;
  EventHandle victim;
  {
    Engine::ShardScope scope(engine, 1);
    victim = engine.schedule_at(10, [&] { fired = true; });
  }
  {
    Engine::ShardScope scope(engine, 0);
    // Same window as the victim (horizon covers both): by the time the
    // buffered cancel reaches the barrier the event has fired and its slot
    // generation has moved on. The cancel must be a harmless no-op.
    engine.schedule_at(5, [&] { victim.cancel(); });
  }
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.events_fired(), 2);
  // And the slot can be safely reused afterwards.
  {
    Engine::ShardScope scope(engine, 1);
    bool again = false;
    engine.schedule_at(engine.now() + 1, [&again] { again = true; });
    engine.run();
    EXPECT_TRUE(again);
  }
}

TEST(ParSim, MassCrossShardCancellationCompactsTheTargetHeap) {
  Engine engine;
  engine.configure_shards(2);
  engine.set_lookahead(50);

  constexpr int kVictims = 400;
  std::vector<EventHandle> victims;
  victims.reserve(kVictims);
  int fired = 0;
  {
    Engine::ShardScope scope(engine, 1);
    for (int i = 0; i < kVictims; ++i) {
      victims.push_back(engine.schedule_at(1'000 + i, [&fired] { ++fired; }));
    }
    // One survivor proves compaction keeps live events intact.
    engine.schedule_at(2'000, [&fired] { fired += 100; });
  }
  {
    Engine::ShardScope scope(engine, 0);
    engine.schedule_at(1, [&] {
      for (EventHandle& handle : victims) handle.cancel();
    });
  }
  // Run just the first window: the barrier applies all 400 cancels, which
  // exceed half of shard 1's heap, so the tombstones are compacted away
  // instead of lingering until t=1000.
  engine.run_until(100);
  EXPECT_EQ(fired, 0);
  EXPECT_LE(engine.pending(), 4u) << "tombstones not compacted";
  for (EventHandle& handle : victims) EXPECT_FALSE(handle.active());

  engine.run();
  EXPECT_EQ(fired, 100);  // only the survivor
  EXPECT_EQ(engine.events_fired(), 2);
}

TEST(ParSim, WindowsWithoutCrossShardSendsSkipCommitRendezvous) {
  // Purely shard-local traffic: every window's outboxes are empty, so no
  // window pays the commit rendezvous — windows_committed() stays at zero
  // while windows_run() ticks up and every event still fires.
  Engine engine;
  engine.configure_shards(2);
  engine.set_lookahead(50);
  engine.set_worker_threads(2);

  // One counter per shard: the two chains run on different threads within
  // the same window, so a shared counter would be a data race.
  int fired[2] = {0, 0};
  struct LocalChain {
    Engine* engine;
    int* fired;
    void fire(SimTime at) {
      ++*fired;
      if (at < 2'000) {
        engine->schedule_at(at + 7, [this, at] { fire(at + 7); });
      }
    }
  };
  LocalChain chains[2] = {{&engine, &fired[0]}, {&engine, &fired[1]}};
  for (std::uint32_t s = 0; s < 2; ++s) {
    Engine::ShardScope scope(engine, s);
    engine.schedule_at(1, [&chains, s] { chains[s].fire(1); });
  }
  engine.run();

  int expected_per_shard = 0;
  for (SimTime at = 1; true; at += 7) {
    ++expected_per_shard;
    if (at >= 2'000) break;  // last hop fires but schedules no successor
  }
  EXPECT_EQ(fired[0], expected_per_shard);
  EXPECT_EQ(fired[1], expected_per_shard);
  EXPECT_GT(engine.windows_run(), 0);
  EXPECT_EQ(engine.windows_committed(), 0);
}

TEST(ParSim, MixedTrafficCommitsOnlyTheWindowsThatCrossed) {
  // One early cross-shard send, then silence: exactly the windows carrying
  // cross-shard traffic rendezvous; later local-only windows skip.
  Engine engine;
  engine.configure_shards(2);
  engine.set_lookahead(50);

  bool crossed = false;
  int local = 0;
  {
    Engine::ShardScope scope(engine, 0);
    engine.schedule_at(1, [&engine, &crossed] {
      engine.schedule_on(1, 1 + 50, [&crossed] { crossed = true; });
    });
    for (SimTime t = 500; t < 2'000; t += 100) {
      engine.schedule_at(t, [&local] { ++local; });
    }
  }
  engine.run();
  EXPECT_TRUE(crossed);
  EXPECT_EQ(local, 15);
  EXPECT_GT(engine.windows_run(), engine.windows_committed());
  EXPECT_GT(engine.windows_committed(), 0);
}

TEST(ParSim, CommitScratchReachesSteadyStateUnderPingPong) {
  // Cross-shard ping-pong forever: after the first few windows the commit
  // arenas (merge scratch, outboxes, cancel slabs) must stop growing — the
  // fused commit path allocates nothing in steady state.
  Engine engine;
  engine.configure_shards(2);
  engine.set_lookahead(50);
  engine.set_worker_threads(2);

  // One shared counter is race-free here: a single event is in flight, and
  // each hop crosses shards 53 >= lookahead 50 later, so every increment is
  // ordered after the previous one by a window commit.
  std::int64_t bounces = 0;
  struct PingPong {
    Engine* engine;
    std::int64_t* bounces;
    void fire(std::uint32_t me, SimTime at) {
      ++*bounces;
      const std::uint32_t other = 1 - me;
      engine->schedule_on(other, at + 53,
                          [this, other, at] { fire(other, at + 53); });
    }
  };
  PingPong game{&engine, &bounces};
  {
    Engine::ShardScope scope(engine, 0);
    engine.schedule_at(1, [&game] { game.fire(0, 1); });
  }

  engine.run_until(5'000);
  const std::int64_t warm_bounces = bounces;
  const std::size_t scratch = engine.commit_scratch_capacity();
  const std::size_t slots = engine.slot_capacity();
  ASSERT_GT(warm_bounces, 10);
  ASSERT_GT(scratch, 0u);

  engine.run_until(50'000);
  EXPECT_GT(bounces, warm_bounces * 5);
  EXPECT_EQ(engine.commit_scratch_capacity(), scratch)
      << "commit arenas grew after warmup";
  EXPECT_EQ(engine.slot_capacity(), slots)
      << "cancellation slab grew after warmup";
}

// ---------------------------------------------------------------------------
// Grid integration: a real sharded cluster is thread-count invariant, and
// run_for saturates instead of overflowing (satellite: overflow fix).
// ---------------------------------------------------------------------------

std::tuple<std::int64_t, std::int64_t, std::int64_t> run_grid(
    std::size_t threads) {
  core::GridOptions options;
  options.sim_shards = 2;
  options.sim_threads = threads;
  core::Grid grid(7, options);
  auto config =
      core::reshard_cluster(core::quiet_cluster(12, /*seed=*/5), /*segments=*/2);
  grid.add_cluster(std::move(config));
  grid.run_for(2 * kMinute);
  const NetworkStats net = grid.network().stats();
  return {grid.engine().events_fired(), net.messages, net.bytes};
}

TEST(ParSim, ShardedGridIsThreadCountInvariant) {
  const auto t1 = run_grid(1);
  const auto t2 = run_grid(2);
  const auto t4 = run_grid(4);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
  EXPECT_GT(std::get<0>(t1), 0);
  EXPECT_GT(std::get<1>(t1), 0);
}

TEST(ParSim, GridRunForSaturatesNearTimeMax) {
  core::Grid grid(3);
  grid.run_for(10);
  const SimTime before = grid.engine().now();
  EXPECT_EQ(before, 10);
  // Historically `now + d` overflowed to a negative deadline here and the
  // run was skipped (or worse, UB). The deadline must saturate to
  // kTimeNever: the engine drains whatever is pending and the clock never
  // goes backwards.
  grid.run_for(kTimeNever - 5);
  EXPECT_GE(grid.engine().now(), before);
  // The engine is still usable after the saturated run.
  bool fired = false;
  grid.engine().schedule_after(5, [&fired] { fired = true; });
  grid.run_for(10);
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace integrade::sim
