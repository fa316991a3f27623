// Grid facade: naming bootstrap, realm security end-to-end, determinism,
// sandboxed nodes in a live cluster, and node-failure fault injection.
#include <gtest/gtest.h>

#include "asct/asct.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"

namespace integrade::core {
namespace {

using asct::AppBuilder;

TEST(GridNaming, ClustersPublishWellKnownObjects) {
  Grid grid(11);
  auto& lab = grid.add_cluster(quiet_cluster(2, 11, 1000.0, "lab"));
  grid.add_cluster(quiet_cluster(2, 12, 1000.0, "office"));

  auto grm_ref = grid.naming().resolve("clusters/lab/grm");
  ASSERT_TRUE(grm_ref.is_ok());
  EXPECT_EQ(grm_ref.value(), lab.grm_ref());
  EXPECT_TRUE(grid.naming().resolve("clusters/lab/gupa").is_ok());
  EXPECT_TRUE(grid.naming().resolve("clusters/lab/checkpoints").is_ok());
  EXPECT_TRUE(grid.naming().resolve("clusters/office/asct").is_ok());
  EXPECT_EQ(grid.naming().list("clusters"),
            (std::vector<std::string>{"lab", "office"}));

  // Bootstrapping through the Naming service works: submit via the
  // resolved ref rather than the accessor.
  grid.run_for(2 * kMinute);
  AppBuilder app("by-name");
  app.tasks(1, 30'000.0);
  const AppId id =
      lab.asct().submit(grm_ref.value(), app.build(lab.asct().ref()));
  EXPECT_TRUE(grid.run_until_app_done(lab, id, grid.engine().now() + kHour));
}

TEST(GridSecurity, SecureRealmRunsApplicationsAndSignsEverything) {
  GridOptions options;
  options.realm_passphrase = "ime-usp-campus";
  Grid grid(21, options);
  auto& cluster = grid.add_cluster(quiet_cluster(4, 21));
  grid.run_for(2 * kMinute);

  AppBuilder app("secured");
  app.kind(protocol::AppKind::kParametric).tasks(4, 30'000.0);
  const AppId id = cluster.asct().submit(cluster.grm_ref(),
                                         app.build(cluster.asct().ref()));
  ASSERT_TRUE(grid.run_until_app_done(cluster, id, grid.engine().now() + kHour));

  auto* secure = grid.secure_transport();
  ASSERT_NE(secure, nullptr);
  EXPECT_GT(secure->metrics().counter_value("frames_signed"), 30);
  EXPECT_EQ(secure->metrics().counter_value("frames_signed"),
            secure->metrics().counter_value("frames_verified"));
  EXPECT_EQ(secure->rejected_frames(), 0);
}

TEST(GridSecurity, UnkeyedIntruderFramesAreDropped) {
  GridOptions options;
  options.realm_passphrase = "ime-usp-campus";
  Grid grid(22, options);
  auto& cluster = grid.add_cluster(quiet_cluster(2, 22));
  grid.run_for(2 * kMinute);

  // An intruder joins the same physical network with its own (unkeyed)
  // transport and fires requests at the GRM. The realm's SecureTransport
  // must drop every frame before it reaches the ORB.
  const auto intruder_addr = grid.allocate_endpoint(cluster.segment_id(0));
  orb::Orb intruder(intruder_addr, grid.raw_transport(), &grid.engine());

  const auto before = grid.secure_transport()->rejected_frames();
  protocol::CancelTask payload{TaskId(1)};
  orb::oneway(intruder, cluster.grm_ref(), "cancel", payload);
  Status status;
  bool completed = false;
  orb::call<cdr::Empty, protocol::NodeStatus>(
      intruder, cluster.lrm(0).ref(), "get_status", cdr::Empty{},
      [&](Result<protocol::NodeStatus> reply) {
        completed = true;
        status = reply.status();
      },
      2 * kSecond);
  grid.run_for(10 * kSecond);

  EXPECT_GE(grid.secure_transport()->rejected_frames(), before + 2);
  EXPECT_TRUE(completed);
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);  // never answered
}

TEST(GridDeterminism, SameSeedSameOutcome) {
  auto run = [](std::uint64_t seed) {
    Grid grid(seed);
    auto& cluster = grid.add_cluster(campus_cluster(12, seed));
    grid.run_for(kDay);
    AppBuilder app("det");
    app.kind(protocol::AppKind::kParametric).tasks(6, 120'000.0);
    const AppId id = cluster.asct().submit(cluster.grm_ref(),
                                           app.build(cluster.asct().ref()));
    grid.run_until_app_done(cluster, id, grid.engine().now() + 12 * kHour);
    const auto* progress = cluster.asct().progress(id);
    return std::tuple<SimDuration, int, MInstr>(
        progress->makespan(), progress->evictions, cluster.total_work_done());
  };
  // Note: app/task ids come from a global allocator, so identical seeds in
  // the same process still see different ids; everything else must agree.
  const auto a = run(555);
  const auto b = run(555);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_DOUBLE_EQ(std::get<2>(a), std::get<2>(b));
}

TEST(GridFaults, NodeCrashMidTaskRecovers) {
  Grid grid(31);
  auto& cluster = grid.add_cluster(quiet_cluster(3, 31));
  grid.run_for(2 * kMinute);

  AppBuilder app("crashy");
  app.tasks(1, 300'000.0).checkpoint_period(20 * kSecond, 32 * kKiB);
  const AppId id = cluster.asct().submit(cluster.grm_ref(),
                                         app.build(cluster.asct().ref()));
  grid.run_for(2 * kMinute);

  int victim = -1;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.lrm(i).running_task_count() > 0) {
      victim = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(victim, 0);
  cluster.machine(static_cast<std::size_t>(victim)).set_up(false);  // crash

  ASSERT_TRUE(grid.run_until_app_done(cluster, id, grid.engine().now() + 2 * kHour));
  const auto* progress = cluster.asct().progress(id);
  EXPECT_EQ(progress->completed, 1);
  EXPECT_GE(progress->evictions, 1);  // node-failure surfaces as eviction event
  // Checkpoint-restored: far less than a full re-run wasted.
  EXPECT_LT(cluster.total_work_done(), 2 * 300'000.0);
}

TEST(GridSandbox, PerNodeSandboxSteersWorkElsewhere) {
  Grid grid(41);
  auto config = quiet_cluster(2, 41);
  security::SandboxPolicy restrictive;
  restrictive.max_work = 1'000.0;  // node 0 hosts only tiny tasks
  config.lrm.sandbox = security::Sandbox(restrictive);
  auto& cluster = grid.add_cluster(config);
  // Loosen node 1 by rebuilding its options? Per-cluster options are
  // shared; instead verify that the restrictive sandbox refuses and the
  // task remains pending (no node admits it).
  grid.run_for(2 * kMinute);

  AppBuilder app("big");
  app.tasks(1, 100'000.0);
  const AppId id = cluster.asct().submit(cluster.grm_ref(),
                                         app.build(cluster.asct().ref()));
  grid.run_for(10 * kMinute);
  EXPECT_FALSE(cluster.asct().done(id));
  EXPECT_GE(cluster.lrm(0).metrics().counter_value("executes_sandboxed") +
                cluster.lrm(1).metrics().counter_value("executes_sandboxed"),
            1);

  AppBuilder tiny("tiny");
  tiny.tasks(1, 500.0);
  const AppId tiny_id = cluster.asct().submit(cluster.grm_ref(),
                                              tiny.build(cluster.asct().ref()));
  EXPECT_TRUE(grid.run_until_app_done(cluster, tiny_id,
                                      grid.engine().now() + kHour));
}

TEST(GridClock, RunForSaturatesNearTimeMax) {
  Grid grid(3);
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
}  // namespace integrade::core
