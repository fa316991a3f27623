// Protocol messages: exhaustive CDR round-trips in both byte orders, plus
// the NodeStatus <-> Trader property-schema conversion.
#include <gtest/gtest.h>

#include "protocol/messages.hpp"
#include "protocol/properties.hpp"

namespace integrade::protocol {
namespace {

template <class T>
void expect_round_trip(const T& value) {
  for (auto order :
       {cdr::ByteOrder::kLittleEndian, cdr::ByteOrder::kBigEndian}) {
    auto bytes = cdr::encode_message(value, order);
    auto decoded = cdr::decode_message<T>(bytes, order);
    ASSERT_TRUE(decoded.is_ok()) << "decode failed";
    EXPECT_EQ(decoded.value(), value);
  }
}

orb::ObjectRef sample_ref() {
  orb::ObjectRef ref;
  ref.host = 42;
  ref.key = ObjectId(17);
  ref.type_id = "IDL:integrade/Lrm:1.0";
  return ref;
}

NodeStatus sample_status() {
  NodeStatus s;
  s.node = NodeId(5);
  s.lrm = sample_ref();
  s.hostname = "lab-n5";
  s.cpu_mips = 1400.5;
  s.ram_total = 256 * kMiB;
  s.disk_total = 20 * kGiB;
  s.os = "linux";
  s.arch = "x86";
  s.platforms = {"linux-x86", "java"};
  s.segment = 2;
  s.dedicated = false;
  s.owner_cpu = 0.25;
  s.grid_cpu = 0.5;
  s.exportable_cpu = 0.25;
  s.free_ram = 100 * kMiB;
  s.owner_present = true;
  s.shareable = false;
  s.running_tasks = 2;
  s.timestamp = 123456789;
  return s;
}

TaskDescriptor sample_task() {
  TaskDescriptor t;
  t.id = TaskId(9);
  t.app = AppId(4);
  t.kind = AppKind::kBsp;
  t.binary_platform = "linux-x86";
  t.work = 1e6;
  t.ram_needed = 64 * kMiB;
  t.input_bytes = 1024;
  t.output_bytes = 2048;
  t.bsp_rank = 3;
  t.bsp_processes = 8;
  t.bsp_supersteps = 100;
  t.bsp_comm_bytes_per_step = 4096;
  t.checkpoint_every = 10;
  t.checkpoint_bytes = kMiB;
  t.checkpoint_period = 30 * kSecond;
  return t;
}

TEST(ProtocolRoundTrip, NodeStatus) { expect_round_trip(sample_status()); }

TEST(ProtocolRoundTrip, NodeStatusBatch) {
  NodeStatusBatch batch;
  batch.segment = 3;
  batch.updates.push_back(sample_status());
  NodeStatus other = sample_status();
  other.node = NodeId(6);
  other.hostname = "lab-n6";
  other.shareable = true;
  other.running_tasks = 0;
  batch.updates.push_back(other);
  batch.epoch = 7;  // failover incarnation stamp
  expect_round_trip(batch);

  NodeStatusBatch empty;
  empty.segment = 0;
  expect_round_trip(empty);  // epoch 0 = unversioned legacy sender
}

TEST(ProtocolRoundTrip, FailoverMessages) {
  TaskResync resync;
  resync.node = NodeId(11);
  resync.lrm = sample_ref();
  resync.running = {TaskId(3), TaskId(5), TaskId(8)};
  expect_round_trip(resync);
  expect_round_trip(TaskResync{});

  SnapshotInstall install;
  install.image = {0x49, 0x47, 0x53, 0x4e, 1, 2, 3};
  expect_round_trip(install);
  expect_round_trip(SnapshotInstall{});

  SnapshotInstallReply accepted;
  accepted.accepted = true;
  expect_round_trip(accepted);
  SnapshotInstallReply rejected;
  rejected.accepted = false;
  rejected.reason = "checksum mismatch";
  expect_round_trip(rejected);
}

TEST(ProtocolRoundTrip, TaskDescriptor) { expect_round_trip(sample_task()); }

TEST(ProtocolRoundTrip, ReservationPair) {
  ReservationRequest req;
  req.id = ReservationId(11);
  req.task = TaskId(9);
  req.cpu_fraction = 0.8;
  req.ram = 32 * kMiB;
  req.hold = 45 * kSecond;
  expect_round_trip(req);

  ReservationReply reply;
  reply.id = ReservationId(11);
  reply.granted = false;
  reply.reason = "owner present";
  reply.exportable_cpu = 0.1;
  reply.free_ram = kMiB;
  expect_round_trip(reply);
}

TEST(ProtocolRoundTrip, ExecutePair) {
  ExecuteRequest req;
  req.reservation = ReservationId(11);
  req.task = sample_task();
  req.report_to = sample_ref();
  req.restore_state = {1, 2, 3, 4};
  expect_round_trip(req);

  ExecuteReply reply;
  reply.reservation = ReservationId(11);
  reply.accepted = true;
  expect_round_trip(reply);
}

TEST(ProtocolRoundTrip, TaskReport) {
  TaskReport report;
  report.task = TaskId(9);
  report.node = NodeId(5);
  report.outcome = TaskOutcome::kEvicted;
  report.work_done = 5.5e5;
  report.detail = "owner reclaimed the machine";
  expect_round_trip(report);
}

TEST(ProtocolRoundTrip, UsagePattern) {
  UsageCategory cat;
  cat.centroid.assign(48, 0.25);
  cat.centroid[10] = 0.9;
  cat.weight = 0.7;
  cat.weekday_fraction = 1.0;
  expect_round_trip(cat);

  UsagePatternUpload upload;
  upload.node = NodeId(5);
  upload.categories = {cat, cat};
  upload.days_observed = 14;
  expect_round_trip(upload);
}

TEST(ProtocolRoundTrip, Forecast) {
  ForecastRequest req;
  req.node = NodeId(5);
  req.at = 7 * kDay + 3 * kHour;
  req.horizon = 2 * kHour;
  expect_round_trip(req);

  ForecastReply reply;
  reply.node = NodeId(5);
  reply.known = true;
  reply.p_idle_through = 0.87;
  reply.expected_idle_remaining = 5 * kHour;
  expect_round_trip(reply);
}

TEST(ProtocolRoundTrip, ApplicationSpec) {
  ApplicationSpec spec;
  spec.id = AppId(4);
  spec.name = "render";
  spec.kind = AppKind::kParametric;
  spec.tasks = {sample_task(), sample_task()};
  spec.requirements.constraint = "cpu_mips >= 500";
  spec.requirements.preference = "max exportable_mips";
  spec.topology.groups = {{50, 12.5e6}, {50, 12.5e6}};
  spec.topology.min_inter_bandwidth = 1.25e6;
  spec.estimated_duration = kHour;
  spec.notify = sample_ref();
  expect_round_trip(spec);
}

TEST(ProtocolRoundTrip, SubmitReplyAndAppEvent) {
  SubmitReply reply;
  reply.app = AppId(4);
  reply.accepted = false;
  reply.reason = "bad constraint";
  expect_round_trip(reply);

  AppEvent event;
  event.app = AppId(4);
  event.task = TaskId(9);
  event.kind = AppEventKind::kTaskEvicted;
  event.node = NodeId(5);
  event.at = kDay;
  event.detail = "owner back";
  expect_round_trip(event);
}

TEST(ProtocolRoundTrip, BspMessages) {
  BspComputeRequest req;
  req.task = TaskId(9);
  req.rank = 3;
  req.superstep = 42;
  req.work = 1e4;
  req.notify = sample_ref();
  expect_round_trip(req);

  BspChunkDone done;
  done.task = TaskId(9);
  done.rank = 3;
  done.superstep = 42;
  done.node = NodeId(5);
  expect_round_trip(done);
}

TEST(ProtocolRoundTrip, InterCluster) {
  ClusterSummary summary;
  summary.cluster = ClusterId(2);
  summary.grm = sample_ref();
  summary.total_nodes = 50;
  summary.shareable_nodes = 30;
  summary.total_exportable_mips = 42000.0;
  summary.max_free_ram_mb = 512;
  summary.platforms = {"java", "linux-x86"};
  summary.timestamp = kHour;
  expect_round_trip(summary);

  RemoteSubmit remote;
  remote.spec.id = AppId(4);
  remote.spec.tasks = {sample_task()};
  remote.ttl = 5;
  remote.visited_clusters = {1, 2, 3};
  remote.origin_grm = sample_ref();
  expect_round_trip(remote);

  RemoteAdopted adopted;
  adopted.app = AppId(4);
  adopted.task = TaskId(9);
  adopted.by_cluster = ClusterId(3);
  adopted.hops = 2;
  expect_round_trip(adopted);
}

TEST(ProtocolRoundTrip, SmallMessages) {
  expect_round_trip(CancelTask{TaskId(3)});
  WorkReply work;
  work.has_work = true;
  work.task = sample_task();
  expect_round_trip(work);
  expect_round_trip(cdr::Empty{});
}

// --- checkpoint data plane ---

CkptManifest sample_manifest() {
  CkptManifest m;
  m.app = AppId(11);
  m.rank = 2;
  m.version = 7;
  m.chunker = 1;
  m.chunk_size = 64 * 1024;
  m.image_bytes = 200'000;
  for (std::uint8_t i = 0; i < 3; ++i) {
    CkptChunkRef ref;
    ref.hash.fill(i);
    ref.raw_size = 65536;
    m.chunks.push_back(ref);
  }
  m.chunks.back().raw_size = 68928;
  return m;
}

TEST(ProtocolRoundTrip, CkptManifestFrames) {
  expect_round_trip(sample_manifest());
  expect_round_trip(CkptManifestOffer{sample_manifest()});
  CkptChunkNeed need;
  need.accepted = true;
  need.missing = {0, 2};
  expect_round_trip(need);
  need.accepted = false;
  need.reason = "version regression";
  need.missing.clear();
  expect_round_trip(need);
  CkptManifestInstall install;
  install.manifest = sample_manifest();
  install.prune_below = 5;
  expect_round_trip(install);
  expect_round_trip(CkptInstallReply{true, ""});
  expect_round_trip(CkptInstallReply{false, "missing chunk"});
}

TEST(ProtocolRoundTrip, CkptChunkFrames) {
  CkptChunkData chunk;
  chunk.hash.fill(0xab);
  chunk.encoding = 1;
  chunk.raw_size = 4096;
  chunk.payload = {1, 2, 3, 4, 5};
  expect_round_trip(chunk);
  CkptChunkPut put;
  put.app = AppId(11);
  put.chunks = {chunk, chunk};
  expect_round_trip(put);
  expect_round_trip(CkptPutReply{2, 1});
  CkptChunkGet get;
  get.hashes = {chunk.hash, CkptHash{}};
  expect_round_trip(get);
  expect_round_trip(CkptChunkGetReply{{chunk}});
  expect_round_trip(CkptPrune{AppId(11), 6});
  expect_round_trip(CkptDrop{AppId(11)});
}

TEST(ProtocolRoundTrip, CkptLifecycleFrames) {
  CkptSaveRequest save;
  save.app = AppId(11);
  save.rank = 2;
  save.version = 7;
  save.epoch = 3;
  save.image_bytes = 200'000;
  save.repository = sample_ref();
  save.peers = {sample_ref(), sample_ref()};
  save.prune_below = 4;
  save.notify = sample_ref();
  expect_round_trip(save);

  CkptSaveDone done;
  done.app = AppId(11);
  done.rank = 2;
  done.version = 7;
  done.epoch = 3;
  done.ok = true;
  done.image_bytes = 200'000;
  done.chunks_total = 4;
  done.chunks_shipped = 1;
  done.chunks_deduped = 3;
  done.bytes_shipped = 70'000;
  expect_round_trip(done);

  CkptRestoreRequest restore;
  restore.app = AppId(11);
  restore.rank = 2;
  restore.version = 7;
  restore.epoch = 4;
  restore.manifest = sample_manifest();
  restore.repository = sample_ref();
  restore.peers = {sample_ref()};
  restore.notify = sample_ref();
  expect_round_trip(restore);

  CkptRestoreDone rdone;
  rdone.app = AppId(11);
  rdone.rank = 2;
  rdone.version = 7;
  rdone.epoch = 4;
  rdone.ok = true;
  rdone.chunks_local = 1;
  rdone.chunks_from_peers = 2;
  rdone.chunks_from_repository = 1;
  rdone.bytes_pulled = 140'000;
  expect_round_trip(rdone);
}

TEST(ProtocolRoundTrip, TruncatedStatusFailsCleanly) {
  auto bytes = cdr::encode_message(sample_status());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(cdr::decode_message<NodeStatus>(bytes).is_ok());
}

// --- property schema ---

TEST(Properties, StatusToPropertiesExposesSchema) {
  const auto props = to_properties(sample_status());
  EXPECT_EQ(props.get_real(kPropCpuMips), 1400.5);
  EXPECT_EQ(props.get_int(kPropRamTotal), 256);
  EXPECT_EQ(props.get_bool(kPropShareable), false);
  EXPECT_EQ(props.get_int(kPropSegment), 2);
  EXPECT_DOUBLE_EQ(*props.get_real(kPropExportableMips), 0.25 * 1400.5);
  ASSERT_TRUE(props.get(kPropPlatforms).is_list());
  EXPECT_EQ(props.get(kPropPlatforms).as_list().size(), 2u);
}

TEST(Properties, RoundTripPreservesSchedulingFields) {
  const auto original = sample_status();
  const auto restored = from_properties(to_properties(original));
  EXPECT_EQ(restored.node, original.node);
  EXPECT_EQ(restored.hostname, original.hostname);
  EXPECT_EQ(restored.cpu_mips, original.cpu_mips);
  EXPECT_EQ(restored.platforms, original.platforms);
  EXPECT_EQ(restored.segment, original.segment);
  EXPECT_EQ(restored.owner_present, original.owner_present);
  EXPECT_EQ(restored.shareable, original.shareable);
  EXPECT_EQ(restored.exportable_cpu, original.exportable_cpu);
  EXPECT_EQ(restored.running_tasks, original.running_tasks);
  EXPECT_EQ(restored.timestamp, original.timestamp);
  // RAM round-trips at MiB granularity.
  EXPECT_EQ(restored.free_ram, original.free_ram);
}

TEST(ProtocolHardening, HostileSequenceCountReservesNoMoreThanTheFrame) {
  // A 64 KiB frame claiming 65,528 NodeStatus elements (~256 B each): the
  // reserve must be bounded by the frame, not by the claimed count.
  cdr::Writer w;
  w.write_u32(65528);
  std::vector<std::uint8_t> frame = w.take_buffer();
  frame.resize(64 * 1024);
  cdr::Reader r(frame);
  const auto items = cdr::decode_sequence<NodeStatus>(r);
  EXPECT_FALSE(r.ok());
  EXPECT_LE(items.capacity() * sizeof(NodeStatus), frame.size());
}

}  // namespace
}  // namespace integrade::protocol
