// Golden wire bytes: one fixed sample of every CDR codec type, encoded in
// both byte orders and compared against pinned SHA-256 digests. Round-trip
// tests cannot prove that the wire format is unchanged, because encoder and
// decoder change together; these digests can. Frames with an optional
// trailing extension are pinned both with and without it.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "cdr/cdr.hpp"
#include "cdr/value.hpp"
#include "ckpt/repository.hpp"
#include "common/rng.hpp"
#include "orb/ior.hpp"
#include "protocol/messages.hpp"
#include "security/sha256.hpp"
#include "services/servants.hpp"

namespace integrade {

// Rng::State has no equality of its own; the decode checks below need one.
bool operator==(const Rng::State& a, const Rng::State& b) {
  return std::equal(std::begin(a.s), std::end(a.s), std::begin(b.s)) &&
         a.have_spare_normal == b.have_spare_normal &&
         a.spare_normal == b.spare_normal;
}

namespace {

using cdr::ByteOrder;
using Bytes8 = std::vector<std::uint8_t>;

/// One codec type's sample, type-erased so a single table covers them all.
struct Frame {
  std::string name;
  std::function<Bytes8(ByteOrder)> encode;
  /// Byte count of the sample without its trailing extension; equal to the
  /// full size for frames that have none.
  std::function<std::size_t(ByteOrder)> base_size;
  enum class Decoded { kFailed, kFull, kBase, kOther };
  std::function<Decoded(const Bytes8&, ByteOrder)> decode;
  /// Decodes `bytes`; when that succeeds, re-encodes the value and decodes it
  /// again. False only if the second decode fails.
  std::function<bool(const Bytes8&, ByteOrder)> reencodes;
};

template <class T>
Frame frame(std::string name, T full, std::optional<T> base = std::nullopt) {
  Frame f;
  f.name = std::move(name);
  f.encode = [full](ByteOrder o) { return cdr::encode_message(full, o); };
  f.base_size = [full, base](ByteOrder o) {
    return cdr::encode_message(base ? *base : full, o).size();
  };
  f.decode = [full, base](const Bytes8& bytes, ByteOrder o) {
    auto d = cdr::decode_message<T>(bytes, o);
    if (!d.is_ok()) return Frame::Decoded::kFailed;
    if (d.value() == full) return Frame::Decoded::kFull;
    if (base && d.value() == *base) return Frame::Decoded::kBase;
    return Frame::Decoded::kOther;
  };
  f.reencodes = [](const Bytes8& bytes, ByteOrder o) {
    auto d = cdr::decode_message<T>(bytes, o);
    if (!d.is_ok()) return true;
    return cdr::decode_message<T>(cdr::encode_message(d.value(), o), o).is_ok();
  };
  return f;
}

orb::ObjectRef ref(std::uint64_t host, std::uint64_t key, std::string type) {
  orb::ObjectRef r;
  r.host = host;
  r.key = ObjectId(key);
  r.type_id = std::move(type);
  return r;
}

protocol::NodeStatus node_status(std::uint64_t node) {
  protocol::NodeStatus s;
  s.node = NodeId(node);
  s.lrm = ref(40 + node, 7, "IDL:integrade/Lrm:1.0");
  s.hostname = "lab-n" + std::to_string(node);
  s.cpu_mips = 1400.5;
  s.ram_total = 256 * kMiB;
  s.disk_total = 20 * kGiB;
  s.os = "linux";
  s.arch = "x86_64";
  s.platforms = {"linux-x86", "java"};
  s.segment = -3;
  s.dedicated = true;
  s.owner_cpu = 0.125;
  s.grid_cpu = 0.5;
  s.exportable_cpu = 0.375;
  s.free_ram = 100 * kMiB + 3;
  s.owner_present = false;
  s.shareable = true;
  s.running_tasks = 2;
  s.timestamp = 123456789;
  return s;
}

protocol::TaskDescriptor task_descriptor() {
  protocol::TaskDescriptor t;
  t.id = TaskId(9);
  t.app = AppId(4);
  t.kind = protocol::AppKind::kBsp;
  t.binary_platform = "linux-x86";
  t.work = 1.5e6;
  t.ram_needed = 64 * kMiB;
  t.input_bytes = 1024;
  t.output_bytes = 2049;
  t.bsp_rank = 3;
  t.bsp_processes = 8;
  t.bsp_supersteps = 100;
  t.bsp_comm_bytes_per_step = 4096;
  t.checkpoint_every = 10;
  t.checkpoint_bytes = kMiB;
  t.checkpoint_period = 30 * kSecond;
  return t;
}

protocol::CkptHash hash(std::uint8_t seed) {
  protocol::CkptHash h{};
  for (std::size_t i = 0; i < h.size(); ++i) {
    h[i] = static_cast<std::uint8_t>(seed * 31 + i * 7);
  }
  return h;
}

protocol::CkptManifest manifest() {
  protocol::CkptManifest m;
  m.app = AppId(12);
  m.rank = 2;
  m.version = 17;
  m.chunker = 1;
  m.chunk_size = 4096;
  m.image_bytes = 9000;
  m.chunks = {{hash(1), 4096}, {hash(2), 4904}};
  return m;
}

protocol::CkptChunkData chunk_data(std::uint8_t seed) {
  protocol::CkptChunkData c;
  c.hash = hash(seed);
  c.encoding = 1;
  c.raw_size = 100u + seed;
  c.payload = {seed, 0, 0xff, 3, 5};
  return c;
}

protocol::ApplicationSpec app_spec() {
  protocol::ApplicationSpec s;
  s.id = AppId(77);
  s.name = "render-farm";
  s.kind = protocol::AppKind::kParametric;
  s.tasks = {task_descriptor(), task_descriptor()};
  s.tasks[1].id = TaskId(10);
  s.requirements = {"cpu_mips >= 1000", "max cpu_mips"};
  s.topology.groups = {{4, 1e7}, {2, 5e6}};
  s.topology.min_inter_bandwidth = 1.25e6;
  s.estimated_duration = 90 * kMinute;
  s.notify = ref(3, 99, "IDL:integrade/Asct:1.0");
  return s;
}

template <class T, class F>
T with(T v, F&& mutate) {
  mutate(v);
  return v;
}

cdr::Value value_sample() {
  return cdr::ValueList{cdr::Value(), cdr::Value(true), cdr::Value(-7),
                        cdr::Value(2.5), cdr::Value("str"),
                        cdr::ValueList{cdr::Value(1), cdr::Value("x")}};
}

services::PropertySet property_set() {
  return services::PropertySet{
      {"cpu_mips", cdr::Value(1400.5)},
      {"os", cdr::Value("linux")},
      {"platforms", cdr::ValueList{cdr::Value("linux-x86"), cdr::Value("java")}},
      {"ram_mb", cdr::Value(256)},
      {"shareable", cdr::Value(true)},
  };
}

std::vector<Frame> frames() {
  using namespace protocol;
  std::vector<Frame> out;

  // --- cdr, orb, common ---
  out.push_back(frame("Empty", cdr::Empty{}));
  out.push_back(frame("Value", value_sample()));
  out.push_back(frame("ObjectRef", ref(42, 17, "IDL:integrade/Grm:1.0")));
  Rng::State rng_state;
  rng_state.s[0] = 0x0123456789abcdefULL;
  rng_state.s[1] = 2;
  rng_state.s[2] = 0xfedcba9876543210ULL;
  rng_state.s[3] = 4;
  rng_state.have_spare_normal = true;
  rng_state.spare_normal = -0.75;
  out.push_back(frame("Rng::State", rng_state));

  // --- services ---
  out.push_back(frame("PropertySet", property_set()));
  out.push_back(frame("NameBinding",
                      services::NameBinding{"grid/cluster0/grm",
                                            ref(1, 2, "IDL:integrade/Grm:1.0")}));
  out.push_back(frame("NameRequest", services::NameRequest{"grid/cluster0"}));
  out.push_back(frame("ResolveReply",
                      services::ResolveReply{true, ref(5, 6, "IDL:x:1.0")}));
  out.push_back(frame("BoolReply", services::BoolReply{true, "bound"}));
  out.push_back(frame("OfferExport",
                      services::OfferExport{services::OfferId(3), "InteGradeNode",
                                            ref(7, 8, "IDL:integrade/Lrm:1.0"),
                                            property_set()}));
  out.push_back(frame("OfferIdReply", services::OfferIdReply{services::OfferId(11)}));
  out.push_back(frame("OfferQuery",
                      services::OfferQuery{"InteGradeNode", "shareable", "max cpu_mips",
                                           25}));
  const services::OfferDescription offer{services::OfferId(4),
                                         ref(9, 10, "IDL:integrade/Lrm:1.0"),
                                         property_set()};
  out.push_back(frame("OfferDescription", offer));
  out.push_back(frame("OfferQueryReply",
                      services::OfferQueryReply{true, "", {offer, offer}}));

  // --- ckpt ---
  out.push_back(frame("SequentialState", ckpt::SequentialState{12345.5}));
  out.push_back(frame("Checkpoint", ckpt::Checkpoint{AppId(6), 3, 40, 5 * kSecond,
                                                     {1, 2, 3, 4, 5, 6, 7}}));

  // --- protocol: information update ---
  out.push_back(frame("NodeStatus", node_status(5)));
  out.push_back(frame("NodeStatusBatch",
                      NodeStatusBatch{7, 3, {node_status(1), node_status(2)}}));

  // --- protocol: applications ---
  out.push_back(frame("TaskDescriptor", task_descriptor()));
  out.push_back(frame("ResourceRequirements",
                      ResourceRequirements{"os == 'linux'", "min owner_cpu"}));
  out.push_back(frame("TopologyGroup", TopologyGroup{16, 1.25e7}));
  out.push_back(frame("TopologySpec", app_spec().topology));
  const ApplicationSpec bid_spec = with(app_spec(), [](ApplicationSpec& s) {
    s.tenant = "physics";
    s.bid_budget = 250.5;
    s.bid_deadline = 2 * kHour;
  });
  out.push_back(frame("ApplicationSpec", app_spec()));
  out.push_back(frame("ApplicationSpec+bid", bid_spec, std::optional(app_spec())));
  out.push_back(frame("SubmitReply", SubmitReply{AppId(77), true, "queued"}));
  out.push_back(frame("AppEvent", AppEvent{AppId(77), TaskId(9),
                                           AppEventKind::kTaskEvicted, NodeId(4),
                                           3 * kMinute, "owner returned"}));

  // --- protocol: BSP and control ---
  out.push_back(frame("BspComputeRequest",
                      BspComputeRequest{TaskId(9), 3, 41, 2.5e4,
                                        ref(2, 3, "IDL:integrade/Bsp:1.0")}));
  out.push_back(frame("BspChunkDone", BspChunkDone{TaskId(9), 3, 41, NodeId(8)}));
  out.push_back(frame("CancelTask", CancelTask{TaskId(9)}));
  out.push_back(frame("CancelApp", CancelApp{AppId(77)}));
  out.push_back(frame("WorkReply", WorkReply{true, task_descriptor()}));

  // --- protocol: inter-cluster ---
  out.push_back(frame("ClusterSummary",
                      ClusterSummary{ClusterId(2), ref(1, 1, "IDL:integrade/Grm:1.0"),
                                     50, 31, 42000.25, 512, {"linux-x86", "java"},
                                     7 * kMinute}));
  RemoteSubmit remote;
  remote.spec = app_spec();
  remote.ttl = 5;
  remote.visited_clusters = {1, 4, 9};
  remote.origin_grm = ref(12, 13, "IDL:integrade/Grm:1.0");
  out.push_back(frame("RemoteSubmit", remote));
  out.push_back(frame("RemoteSubmit+bid",
                      with(remote, [&](RemoteSubmit& r) { r.spec = bid_spec; }),
                      std::optional(remote)));
  out.push_back(frame("RemoteAdopted",
                      RemoteAdopted{AppId(77), TaskId(9), ClusterId(4), 2}));

  // --- protocol: reservation & execution ---
  ReservationRequest reserve;
  reserve.id = ReservationId(21);
  reserve.task = TaskId(9);
  reserve.cpu_fraction = 0.75;
  reserve.ram = 64 * kMiB;
  reserve.hold = 20 * kSecond;
  out.push_back(frame("ReservationRequest", reserve));
  out.push_back(frame("ReservationRequest+bid",
                      with(reserve,
                           [](ReservationRequest& r) {
                             r.tenant = "bio";
                             r.bid_budget = 12.5;
                             r.bid_deadline = 40 * kMinute;
                           }),
                      std::optional(reserve)));
  out.push_back(frame("ReservationReply",
                      ReservationReply{ReservationId(21), false, "owner present",
                                       0.25, 32 * kMiB}));
  ExecuteRequest execute;
  execute.reservation = ReservationId(21);
  execute.task = task_descriptor();
  execute.report_to = ref(1, 44, "IDL:integrade/Grm:1.0");
  execute.restore_state = {9, 8, 7};
  out.push_back(frame("ExecuteRequest", execute));
  out.push_back(frame("ExecuteRequest+peers",
                      with(execute,
                           [](ExecuteRequest& e) {
                             e.ckpt_peers = {ref(5, 50, "IDL:integrade/Ckpt:1.0"),
                                             ref(6, 60, "IDL:integrade/Ckpt:1.0")};
                           }),
                      std::optional(execute)));
  out.push_back(frame("ExecuteReply", ExecuteReply{ReservationId(21), true, "ok"}));
  out.push_back(frame("TaskReport", TaskReport{TaskId(9), NodeId(4),
                                               TaskOutcome::kNodeFailed, 1234.5,
                                               "node down"}));
  out.push_back(frame("PreemptRequest",
                      PreemptRequest{TaskId(9),
                                     {ref(5, 50, "IDL:integrade/Ckpt:1.0")}}));

  // --- protocol: failover & snapshots ---
  out.push_back(frame("TaskResync",
                      TaskResync{NodeId(4), ref(4, 1, "IDL:integrade/Lrm:1.0"),
                                 {TaskId(9), TaskId(12)}}));
  out.push_back(frame("SnapshotInstall", SnapshotInstall{{0xde, 0xad, 0xbe, 0xef, 1}}));
  out.push_back(frame("SnapshotInstallReply", SnapshotInstallReply{false, "gap"}));

  // --- protocol: checkpoint data plane ---
  out.push_back(frame("CkptChunkRef", CkptChunkRef{hash(3), 777}));
  out.push_back(frame("CkptManifest", manifest()));
  out.push_back(frame("CkptManifestOffer", CkptManifestOffer{manifest()}));
  out.push_back(frame("CkptChunkNeed", CkptChunkNeed{true, "", {0, 3, 5}}));
  out.push_back(frame("CkptChunkData", chunk_data(4)));
  out.push_back(frame("CkptChunkPut",
                      CkptChunkPut{AppId(12), {chunk_data(1), chunk_data(2)}}));
  out.push_back(frame("CkptPutReply", CkptPutReply{3, 1}));
  out.push_back(frame("CkptManifestInstall", CkptManifestInstall{manifest(), 15}));
  out.push_back(frame("CkptInstallReply", CkptInstallReply{false, "regression"}));
  out.push_back(frame("CkptChunkGet", CkptChunkGet{{hash(5), hash(6)}}));
  out.push_back(frame("CkptChunkGetReply", CkptChunkGetReply{{chunk_data(7)}}));
  out.push_back(frame("CkptManifestQuery", CkptManifestQuery{AppId(12), 2}));
  out.push_back(frame("CkptManifestQueryReply",
                      CkptManifestQueryReply{true, manifest()}));
  out.push_back(frame("CkptPrune", CkptPrune{AppId(12), 16}));
  out.push_back(frame("CkptDrop", CkptDrop{AppId(12)}));
  out.push_back(frame("CkptSaveRequest",
                      CkptSaveRequest{AppId(12), 2, 17, 3, 9000,
                                      ref(1, 2, "IDL:integrade/CkptRepo:1.0"),
                                      {ref(5, 50, "IDL:integrade/Ckpt:1.0")}, 15,
                                      ref(1, 3, "IDL:integrade/Bsp:1.0")}));
  out.push_back(frame("CkptSaveDone",
                      CkptSaveDone{AppId(12), 2, 17, 3, true, 9000, 3, 2, 1, 8100}));
  out.push_back(frame("CkptRestoreRequest",
                      CkptRestoreRequest{AppId(12), 2, 17, 3, manifest(),
                                         ref(1, 2, "IDL:integrade/CkptRepo:1.0"),
                                         {ref(5, 50, "IDL:integrade/Ckpt:1.0"),
                                          ref(6, 60, "IDL:integrade/Ckpt:1.0")},
                                         ref(1, 3, "IDL:integrade/Bsp:1.0")}));
  out.push_back(frame("CkptRestoreDone",
                      CkptRestoreDone{AppId(12), 2, 17, 3, true, 1, 2, 0, 8100}));

  // --- protocol: usage patterns ---
  UsageCategory category;
  category.centroid = {0.0, 0.25, 0.5, 1.0};
  category.weight = 0.625;
  category.weekday_fraction = 0.8;
  out.push_back(frame("UsageCategory", category));
  out.push_back(frame("UsagePatternUpload",
                      UsagePatternUpload{NodeId(4), {category, category}, 21}));
  out.push_back(frame("ForecastRequest",
                      ForecastRequest{NodeId(4), 3 * kHour, 45 * kMinute}));
  out.push_back(frame("ForecastReply",
                      ForecastReply{NodeId(4), true, 0.875, 20 * kMinute}));
  return out;
}

struct Pinned {
  const char* name;
  const char* little;  // SHA-256 of the little-endian frame
  const char* big;     // SHA-256 of the big-endian frame
};

// Recorded from the hand-written codecs these samples were first pinned on.
const Pinned kPinned[] = {
    {"Empty",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"Value",
     "e84d035c7d01cea62fc12962fb8dd2c496eca38ed58e9b73f2a9c823c81ac04d",
     "26275f518ae10ac9551a6f757f959d5f9b6d005f81955ae13347ac92d983e640"},
    {"ObjectRef",
     "08062ee10b2d91a728e00cd4ce8e5a07d69f0667526b937a50d996ae2a1fb66e",
     "21188343e8b8fa099c04464b8489881e4fd665292698b81604dc7cfcec2693dd"},
    {"Rng::State",
     "3f315d41fcd51851a78eace7711ee2b0e98edaa64ca361930dc2e8589fa1a8c8",
     "667f861fdf40c4d82a5651b8b9a293d748c47adec99bc55514e49eb969de120b"},
    {"PropertySet",
     "454368c82aac06afb43272fe6fba38e346e3cf463b41f140e5dac3049caa1b6e",
     "f6ba625e0577583833d234e4bd06b7b7468e49aee5b51cfd688f01e1e60589f0"},
    {"NameBinding",
     "57b5e4869b7bd92fc96c0eabd39841a14c4efb995ed6c79c81a15d2631f66937",
     "ec93d9c0e398696b71e9aa7dea5d5493482305995c04ba585f889da4bd339af6"},
    {"NameRequest",
     "5477d1330707e1a987af6507567c535cf7b54a5a502a4c3f57182f2e4ad03c66",
     "dfc5efe0230e2de920ba11edc289f80114b3a13abceec7ed3f82aafaa5e61493"},
    {"ResolveReply",
     "57b6de67ec9c2485a3e5d153e43fe81b07c88cb0bded6b3e88e8c1712ea56698",
     "ecb07fc16a6b93026f55e233d318fa67e520e5cc8b4f9cb894d1850189dceb1c"},
    {"BoolReply",
     "c33186b1d26a830ed0467968ed69a24e13c015ae13de8682a8c34bcb237a74de",
     "b732ed1d28f2296ad11ede7d52dc2835ecbc69b0be475d0fd0b6e689f3bc5d24"},
    {"OfferExport",
     "33ad1f077b7bedb9e65c098322b76c0e9696acda6bb167e38e793f888038cb99",
     "454d54346ca6fbbd85efa82cfbfe04ef8eb03790aeef548aab6cd839745dea62"},
    {"OfferIdReply",
     "5fd1b79ebdef9619a57916a3bfc264b54d37a792659b3693f8ab36ec3ebce448",
     "0b5000b73a53f0916c93c68f4b9b6ba8af5a10978634ae4f2237e1f3fbe324fa"},
    {"OfferQuery",
     "ef99959616f1d9e567b8c83f10ba5d2868999319c9dee7bb8b5e2bc6f5d32e23",
     "2486decff8b97c6f2de8da8c2d72715d25e7363884f104a7cdacfa2140eb169f"},
    {"OfferDescription",
     "7d168fc0ae0d498e49712076b49ee4a655b97ea1540df17d02964ca4e83c2251",
     "af66f9324b6dd8da50f4885f18c7b9eaa3e16298267e51c7821f40c8e3aeff3e"},
    {"OfferQueryReply",
     "360d903dbb7b500a8768542536d33e1d0b643b88bb2acd3b01e43655547c695b",
     "b0a402ae529b30eca61509ad78546a96f3b317e5fb07ef9ae8fd569d65d53de8"},
    {"SequentialState",
     "3ce54b38469c652ed0fe4b9f3f5cfde144c038efab7bfcfd7b8e126ad5f9f7d9",
     "b0355861718cf27479c8b4acd156349519494b384437ceec0a3cf29a5e3cac37"},
    {"Checkpoint",
     "52e39354355bf2518dd7ceae554de61260a1876a429e49242cc6eb449ffbc7b4",
     "473b672c8d95e15e8066a9ce244cb1f4c6923964312065bcc3d004d953afd550"},
    {"NodeStatus",
     "25011ffd6456b4af830042a013d90b94f95fa206628f4ef35eef98a6d49d2afa",
     "5c4c0369978739218eb995bfbdb70058b7bcac1a5401875997431d0af8954808"},
    {"NodeStatusBatch",
     "3a3d30ae91c95f74c8318e6fd4b1cd837e21b48eeeec9afe9cf80ccabf1534c7",
     "e181bb02d28a8a479a638b9616dde076a96d81bbad7993419ed26d94db4bae89"},
    {"TaskDescriptor",
     "5fde52e39aea38a40185d7d515a6c25592394d7f3b49bf3dc010d634623b4928",
     "bbdf474c6a08d2c27cb3fe355e3ce5e3185179eaf5d6f5bfa4bebdf8c02849ff"},
    {"ResourceRequirements",
     "7baee16b787c8650781b0dd4b6856388a5824100c396a529d4789b5089d9c29a",
     "aa18438e9e46cd2e84b9f7213dafb1e80bb869b07578f9b5f91847784d5b6e2e"},
    {"TopologyGroup",
     "a2e809d27a7ebcd7a84f0ed9fc971efc756f9ed00dbc879a1f2731770b6b9277",
     "69585eebde7edc5d0fc0424b302c3f599a5d7b6ba6a59250c7737750a39a4b70"},
    {"TopologySpec",
     "c4be154af67d7c684ca49a18842cfe3c1b50081f9c2ff096d4fc4bc90b153808",
     "e9cb1230819e5c94e5b8f9f068dcac8053f65a861b46fa6e288ea6d983748843"},
    {"ApplicationSpec",
     "67ffc8e9a522ab0ea76a35500097987a68f4a813f123276201f4a53c2e6fe7e5",
     "39d8aadf3df53c9eac9f83c7fceea12947e447a047307897bc3206b34ec5e4e1"},
    {"ApplicationSpec+bid",
     "682ebcc95ef53d1326af9dd604ae5d34df12bedf78403035f8d9d63cda915700",
     "23cfbe6c129984096bf7e238a7c107f5b1469327926137c2ce34977b4cd8bd56"},
    {"SubmitReply",
     "344e342dacd2d18151296df2ac405904444f815d3b22ae8a9d6e1d5489dc3942",
     "a3335cc593ed32cd09d07b4d78fcb4f3a47a09a3432ed4773e13888cfb99a4b9"},
    {"AppEvent",
     "3308fa6d2db08dd7aed8ae4a6348ef59c2b256e0e2f3cef1b826ad57c37b4022",
     "fb74a90fe067048b1c6732bd726aaba4d39e3be251d9beb073ca52c4676bf475"},
    {"BspComputeRequest",
     "2a31eed6d72bf586fefe0e64885ad470e693ba2ee3b9811902ae1b60cfff0a6c",
     "3ffc04f5b9bfdb77e04e24119ab34dd8b5d706068e4dfbaf8f3877ce793ea816"},
    {"BspChunkDone",
     "53e03f28d540989efdaa8b1c22bbed0b4579acba18754fcfb6a40e1d235cfd07",
     "486a0ea3a16cfde4029fe94c5d0fdf6f317d03311e0e2c57c4faf6024f6a7d3f"},
    {"CancelTask",
     "cbbd5f990c53684d7ae650b40fcb5656e02261b53da5f6a7d8c819c92f2828f8",
     "5924513516a5993435ec4a240610304aca7d4acf1f2de5ce6812a8c43610c6e6"},
    {"CancelApp",
     "0d1b500797e88c0f92dfbcd1358e60eb3505120485829689e376e13bab44ba64",
     "155be37998596f2974d9d1de0b87c7a0445632ad64dbb34e313d9ce150323599"},
    {"WorkReply",
     "6021d54b72d91a2e4c7ee2ca3f1c4e032bd66b195ece6dd106ade1ad9b9487ba",
     "374baf5f3102d12e9c34c8241972737b19a11c261f2a334a7ad9536b08e3edce"},
    {"ClusterSummary",
     "14deebd0b9f91844aec02473be42ab91d551406cb1e6c763b09f383db79c9091",
     "cfa85a7738a78368ca8be0e2887b505c0c8add22164b1269ceb0c4a871aebe36"},
    {"RemoteSubmit",
     "df885291ea22a8c25084aeaeb747db4958121643f1a9bf9809c48b7bcea24875",
     "60ae53120b9775edbedcec3deb96524910994827fa598b3688535a79b1cba980"},
    {"RemoteSubmit+bid",
     "d482e51474383e51b522113a4853c7b480f25aae787e892fc2bebc0a49b84df0",
     "928b22df6ed0e84b9ca8c4d71e6673bb13c08d10c59dabf7ac4701066f7f00cf"},
    {"RemoteAdopted",
     "9c26b7446c12f9bb70ed537020c9cc870db849d3e1292a2dd714634f79a960a9",
     "651ff474d7dd596c99f6f263e0ea95640f00376200f6c9a1b4aba87d21839c0e"},
    {"ReservationRequest",
     "aec49b882397bf22d9264d8b4c43169fc619e3160d1ceb01d8724a58ca0b4a71",
     "f818bb81c2fbfee072461e157d818ab74f7e20ebdfbbe62c538eb353694f25d2"},
    {"ReservationRequest+bid",
     "25f89740e93f7c66b526fdb830176447f39c26ed7b4dd89044e6cf7e99ae4a48",
     "d81e321eac1f01c7f306b0eea1e087a0f9f56d4168735a69eaa1683e5d68a0bd"},
    {"ReservationReply",
     "80e5ef549f8d2593a9257c3dcfc9adb9abafa00503a91263a6d42fb8460a3e8f",
     "399d746e471b6a349686700fbe36f438baf43bb3a8c49361184b6c54f206257f"},
    {"ExecuteRequest",
     "c6bdba107ee728fe1f51c53b22ad1ba5a41a081eae224b5516795693988b080d",
     "d74c04fdb553fbc03ed86627706e6cbd19f11898bbb945665cca460872ee0714"},
    {"ExecuteRequest+peers",
     "908a5c8494fd08c459b90c0fe785476d042fea5f17911d46b3a7520135fb07dc",
     "b1160fb26cc46c1c496a67b9a4294a2bf6662563d02ae1765f699aae99c6cdad"},
    {"ExecuteReply",
     "50370bbacef55de0d0dc150a58f5b84d9cd801c3b6f15369cbd0e62a95646872",
     "ac01cbbc8ae48f8630e6811577475029bdacb072fcb1087375b6d3d576e085b0"},
    {"TaskReport",
     "23b918e59cda2ce5033f3e695e3894a2dc0d5e6a38cf8f66a7a7cf748227f9e1",
     "f4326c6f8036ad70eb81b912939a3c27b1e6721a9d51c28214bdae13ecc64a1e"},
    {"PreemptRequest",
     "765a5cfc4704a5ff9c8fe30368e8d59ba10ec38b0c4d7646e6e43b15e6a61e75",
     "72fb3b4c27256eb62e7befc5d4d80fc0043a4e89de6805d0da84d0cfd878aefb"},
    {"TaskResync",
     "80934b6126147f62295e43cc1f5f2c829b90b6f0e0e3717f722df191dd64bb66",
     "69159fb2c35de7b1419262b5202cc531da4240e3c404354866fb7edf2cbee5d3"},
    {"SnapshotInstall",
     "09660c4c8e9b10570d10d247facb6455ed7fbc32bf48f00a144cece973e7528a",
     "c86191c3a72d9eeebea7adc26deb6a6d2e8f5871e7b51f623f09d6959c119f16"},
    {"SnapshotInstallReply",
     "80258e7043a9cceae8d872a6763a6f3bdf0fe9c20b8b1a91c4b27503bed397c2",
     "733a1971029f189ea9b07896dc4544187e3217e2209aeb41fe619a91229eeb3e"},
    {"CkptChunkRef",
     "541a558af0e11fde7746e354825ac0808ec791bf16add086561ef5b54f97eef0",
     "da7635eaccec3756d5818300d2790a16d6522c05ec3a195f603e1e91ebee0358"},
    {"CkptManifest",
     "655a04d1442afc7a8763770f564997a1c6f6dbe32b85307375ac570424836eb2",
     "4ccfce73cc053bc5747dd3fef3063c0b61166e679b354b990fd488d28f61c06d"},
    {"CkptManifestOffer",
     "655a04d1442afc7a8763770f564997a1c6f6dbe32b85307375ac570424836eb2",
     "4ccfce73cc053bc5747dd3fef3063c0b61166e679b354b990fd488d28f61c06d"},
    {"CkptChunkNeed",
     "555c0ebdff286c528bfe676be4c3116b8788989566418f284445ae64d6708efb",
     "47ded02d4c84efa2c92cc78e910f54db9f87a205a1955d347ed1dfd92b4a2ce5"},
    {"CkptChunkData",
     "f0b039e03a3388536f458aae26a38aae4cde0030e571a95bc417de8c63af5241",
     "62098eab9a468af02dde43dd4defe4a73d67cda0bdeebf3ac522ccd347969c14"},
    {"CkptChunkPut",
     "d33d78a9cefe984c4d75a63a5d1d65fbbea91403f0623eb069f7b2e89c423db5",
     "7e8cca809f77378decc88eec3cc30983dc70810cee5e2b9c83ef4e7b1e0ded41"},
    {"CkptPutReply",
     "f5bd7cea475f5b00862f9725fe5d6fffe54dc86724895171eac28345106ef72f",
     "8f88362ee8034de8dfd2d681d099066cada58b40ee0bbbc2321309d0b4f4d43f"},
    {"CkptManifestInstall",
     "8bcc467fdaf5467a95dfba97b27e1160aaac1ac91e40dfe3f4083e408c9e273e",
     "b3717d1af0382bd75c46d2812c77536df26ca1275c7116eb456d8bce61b243f8"},
    {"CkptInstallReply",
     "d71e022634ee14c6503aed7410911bb66b4a869f79b08b35bc027fc62a63f69a",
     "dcda7ceb29d0e957a8f6a7c12dd91c14e9560a686945b2009096e8e2b1d2d731"},
    {"CkptChunkGet",
     "19f6572aef9ccb4d7fa64be2d5e7927446cc9d9437c235e346fd802bf4180681",
     "d5cdf1929a8ba2aaddb6da0aa825455986cd75b5bc24b04722ecbf62ae49e417"},
    {"CkptChunkGetReply",
     "389a8848b7d2bddb0537314710442014714462bc5491be65435023f08c6c5842",
     "476cc3f026ed306deeefa08ad4a6ded206fce9655d4cdbc32657c81bb568708d"},
    {"CkptManifestQuery",
     "c200f1dfde3ce1f8303e75816d0a1ca95e50580e4184c3fd846b2f502840dff0",
     "05e7552e3e7581f3cb5cf9270503ca7274a5cfe06a10b2556f8149744c32ca8b"},
    {"CkptManifestQueryReply",
     "4436d9ccf4d71a2186468d22f2cb0269ae588275062f320e1e77f5f2aeb51992",
     "080f87850c38a74255036536a9521de27b515bb8b83c071347a5b6457161ac98"},
    {"CkptPrune",
     "a8fb7672abad3d8c5102072f3e8ea9543083332f195d9de6df38760970ec66e6",
     "f1c50e2409c67a09aedaa89b8423645d3a05798d1f89a6a0223fec907fb16053"},
    {"CkptDrop",
     "220dde27afee4d537cac96d85d6546f825153b90e828931b74e103807541bc42",
     "d27a8d9a8d38c7a37c922450a7a1961f138abfa25f5da3df2b972820715fa5ae"},
    {"CkptSaveRequest",
     "5241d84b53cf28f38a7edff3e32371a92530053c1333e2d598652ed277058883",
     "5367c3ab5eeb93009153d0f130d1b4857532a8f8cdfe6f7d14879984ce725d50"},
    {"CkptSaveDone",
     "7fa9dab3add2adc618e92f44587bba70b7bc282895df5f781d91efc250d121fd",
     "8824e830e5a6a746b487d1b1f97af1cc5c2b5fd8b063394ad954d492074010c9"},
    {"CkptRestoreRequest",
     "7e77ad36b0a659ed300f62084e6c613526b2e6a437cf217d9ca52afa4b2ebff5",
     "e6bd4cb0d10b99a3ca35c963603ac707eb6ed7a88cfd7f7e0931c34eb10e90b0"},
    {"CkptRestoreDone",
     "6b7fbeba80e7106607df9766fe491f35a6f7dd603ac2d01d371a70c020d3f3d4",
     "33807a0fc371b5cfdc63a6fe70c36ef0bc564fe3ba8f4569f068458723a7a2f0"},
    {"UsageCategory",
     "e452694afabb845720ebff113e8d9480a27be1b5b5659f886741259ec97eb92f",
     "b2629b89dddd31ac4bf905cfd546e18759987ea2069873ef5bcc17fa428a7d59"},
    {"UsagePatternUpload",
     "acbc3d568b5285bb8fd227909b5298e0b3b8ff7ef4320adc69cf1352526f04cd",
     "168643e5623b6c764dc40b3d193bbcaf1c08434f0b1f1c4db711a5b598308855"},
    {"ForecastRequest",
     "71e7dfacc917dbc204cae56232771687274862a79820543147a5a04f2706d1c8",
     "4e51a51db699aa05fdc26f6c630f30926a43ba083da5ea42b48c43430486f40c"},
    {"ForecastReply",
     "60ad0c7fcdbaf532d58cdfb59f76ba70b57ee2304073cbe1a569b89d9dbb5258",
     "b3b79566f20855c8e4205be8c6c2f304f1e803866ace0b2d7288d7e1fe0dc0d1"},
};

std::string digest(const Bytes8& bytes) {
  return security::to_hex(security::Sha256::hash(bytes));
}

std::string hex(const Bytes8& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0xf];
  }
  return s;
}

TEST(WireGolden, EveryCodecMatchesPinnedBytesInBothOrders) {
  const auto all = frames();
  ASSERT_EQ(all.size(), std::size(kPinned));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Frame& f = all[i];
    ASSERT_EQ(f.name, kPinned[i].name);
    const Bytes8 le = f.encode(ByteOrder::kLittleEndian);
    const Bytes8 be = f.encode(ByteOrder::kBigEndian);
    EXPECT_EQ(digest(le), kPinned[i].little) << f.name << " LE " << hex(le);
    EXPECT_EQ(digest(be), kPinned[i].big) << f.name << " BE " << hex(be);
  }
}

// Every strict prefix of a frame is a truncation and must fail to decode —
// except a cut exactly where an optional trailing extension begins, which is
// the frame an older sender writes and must decode to the base message.
TEST(WireSweep, StrictPrefixesFailExceptAtTheExtensionBoundary) {
  for (const Frame& f : frames()) {
    for (const auto order : {ByteOrder::kLittleEndian, ByteOrder::kBigEndian}) {
      const Bytes8 bytes = f.encode(order);
      const std::size_t base = f.base_size(order);
      ASSERT_EQ(f.decode(bytes, order), Frame::Decoded::kFull) << f.name;
      for (std::size_t len = 0; len < bytes.size(); ++len) {
        const Bytes8 prefix(bytes.begin(), bytes.begin() + static_cast<long>(len));
        const auto expected =
            len == base ? Frame::Decoded::kBase : Frame::Decoded::kFailed;
        EXPECT_EQ(f.decode(prefix, order), expected)
            << f.name << " cut at " << len << " of " << bytes.size();
      }
    }
  }
}

// Seeded single-byte corruptions: a decoder may accept a flipped byte (most
// fields take any value), but it must not crash, and whatever it accepts must
// survive a re-encode and decode.
TEST(WireSweep, SeededByteFlipsDecodeSafely) {
  Rng rng(0xf11b5);
  constexpr int kFlipsPerFrame = 48;
  for (const Frame& f : frames()) {
    for (const auto order : {ByteOrder::kLittleEndian, ByteOrder::kBigEndian}) {
      const Bytes8 bytes = f.encode(order);
      if (bytes.empty()) continue;
      for (int i = 0; i < kFlipsPerFrame; ++i) {
        Bytes8 flipped = bytes;
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
        flipped[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        EXPECT_TRUE(f.reencodes(flipped, order))
            << f.name << " flip at " << pos << " " << hex(flipped);
      }
    }
  }
}

}  // namespace
}  // namespace integrade
