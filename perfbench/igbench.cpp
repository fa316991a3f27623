// One round of one InteGrade benchmark workload, in its own process.
//
//   igbench --workload <name> --seed <n> [--trace <spans.jsonl>]
//
// The round builds the workload's inputs from the seed (a cluster
// configuration plus a fixed simulated-time schedule of application
// submissions), runs the simulated grid until every application completes
// or the workload's deadline passes, checks the outcome, and prints one JSON
// object on stdout. Without --trace it reports the end-to-end figures; with
// --trace it also times the benchmark's own calls into each layer's public
// functions, on inputs taken from the finished grid, and writes the phase
// spans as JSONL. perfbench/run.py drives repeated rounds and aggregates.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "asct/asct.hpp"
#include "cdr/cdr.hpp"
#include "ckpt/chunk.hpp"
#include "ckpt/compress.hpp"
#include "ckpt/store.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "orb/orb.hpp"
#include "orb/transport.hpp"
#include "protocol/messages.hpp"
#include "protocol/properties.hpp"
#include "sched/sched.hpp"
#include "security/sha256.hpp"
#include "services/constraint.hpp"
#include "services/trader.hpp"
#include "sim/engine.hpp"

using namespace integrade;

namespace {

using Clock = std::chrono::steady_clock;

/// Grid set-ups per round (the workload's own plus extras); the round
/// reports their median, since one set-up takes well under a millisecond.
constexpr int kSetupReps = 9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Folds timed results into a value the optimizer cannot discard.
volatile std::uint64_t g_sink = 0;
void sink(std::uint64_t x) { g_sink = g_sink + x; }

// ---------------------------------------------------------------------------
// Workload plans: everything the program receives, generated from the seed.
// ---------------------------------------------------------------------------

struct PlannedApp {
  SimDuration offset;  // submission time, relative to the first submission
  asct::AppBuilder builder;
};

struct BspExpectation {
  int ranks = 0;
  int supersteps = 0;
  Bytes image_bytes = 0;
};

struct Plan {
  std::string name;
  core::ClusterConfig config;
  /// Sim clock when the cluster is added. A non-zero start skips simulating
  /// the night before a weekday-morning workload.
  SimTime start = 0;
  /// Announcements and heartbeats settle before the first submission.
  SimDuration warmup = 0;
  std::vector<PlannedApp> apps;
  /// A task that has not completed this long after the first submission
  /// counts as failed.
  SimDuration deadline = 0;
  /// Forced owner return on the first busy node, to make the restore path
  /// run (offset from the first submission, and how long the owner stays).
  SimDuration evict_at = -1;
  SimDuration evict_for = 0;
  bool check_work_conserved = false;
  std::optional<BspExpectation> bsp;
  /// Image the traced run's checkpoint-layer timings render.
  Bytes image_bytes = 4 * kMiB;
};

// E2's lively campus, scaled up: office and lab desktops only, heartbeats
// every 5 s with state-change pushes and forecast ranking off, and a thin
// stream of small parametric apps through a weekday morning.
Plan plan_iup_campus(std::uint64_t seed) {
  Plan plan;
  plan.name = "iup-campus";
  core::CampusMix mix;
  mix.office_workers = 100;
  mix.lab_machines = 100;
  mix.nocturnal = 0;
  mix.mostly_idle = 0;
  mix.busy_servers = 0;
  plan.config = core::campus_cluster(mix, seed, "campus");
  plan.config.lrm.update_period = 5 * kSecond;
  plan.config.lrm.push_on_state_change = false;
  plan.config.grm.offer_ttl = 150 * kSecond;
  plan.config.grm.use_forecast = false;
  plan.start = kDay + 9 * kHour;  // Tuesday 09:00
  plan.warmup = 5 * kMinute;
  Rng rng(seed ^ 0x1f0c0a5e);
  for (int i = 0; i < 36; ++i) {
    asct::AppBuilder app("iup-" + std::to_string(i));
    app.kind(protocol::AppKind::kParametric).tasks(4, 60'000.0);
    const SimDuration jitter = rng.uniform_int(0, 60) * kSecond;
    plan.apps.push_back({i * 6 * kMinute + jitter, app});
  }
  plan.deadline = 8 * kHour;
  return plan;
}

// A large owner-free cluster under the default GRM (FIFO queue, forecast
// ranking on) with bursts of one-minute tasks far outnumbering the nodes.
// The heartbeat period stays under offer_ttl: above it the GRM expires live
// nodes and reruns their tasks.
Plan plan_task_burst(std::uint64_t seed) {
  Plan plan;
  plan.name = "task-burst";
  plan.config = core::quiet_cluster(100, seed, 1000.0, "burst");
  plan.config.lrm.update_period = 120 * kSecond;
  plan.config.grm.offer_ttl = 150 * kSecond;
  plan.warmup = 3 * kMinute;
  Rng rng(seed ^ 0x7a5cb125);
  for (int b = 0; b < 4; ++b) {
    std::vector<MInstr> works;
    for (int t = 0; t < 300; ++t) works.push_back(rng.uniform(54'000.0, 66'000.0));
    asct::AppBuilder app("burst-" + std::to_string(b));
    app.kind(protocol::AppKind::kParametric).task_works(works);
    plan.apps.push_back({b * 4 * kMinute, app});
  }
  plan.deadline = 6 * kHour;
  plan.check_work_conserved = true;
  return plan;
}

// E17's reference cell: a BSP app checkpointing through the content-addressed
// data plane (fixed 64 KiB chunks, LZ, dedup, 2 replicas) over churny
// owners, plus one forced eviction so the restore path runs.
Plan plan_bsp_ckpt(std::uint64_t seed) {
  Plan plan;
  plan.name = "bsp-ckpt";
  plan.config = core::quiet_cluster(16, seed, 1000.0, "bsp");
  for (auto& node : plan.config.nodes) {
    node.profile.presence_prob.fill(0.15);
    node.profile.persistence_slots = 1.0;
    node.profile.active_cpu_mean = 0.6;
    node.policy.idle_grace = kMinute;
  }
  plan.config.ckpt.enabled = true;
  plan.config.ckpt.chunking.chunker = ckpt::Chunker::kFixed;
  plan.config.ckpt.chunking.chunk_size = 64 * 1024;
  plan.config.ckpt.compress = true;
  plan.config.ckpt.dedup = true;
  plan.config.ckpt.replicate_k = 2;
  plan.warmup = 2 * kMinute;
  BspExpectation bsp{8, 30, 4 * kMiB};
  asct::AppBuilder app("bsp-dp");
  app.bsp(bsp.ranks, bsp.supersteps, 10'000.0, 64 * kKiB, 2, bsp.image_bytes);
  plan.apps.push_back({0, app});
  plan.evict_at = 2 * kMinute;
  plan.evict_for = kMinute;
  plan.deadline = 72 * kHour;
  plan.bsp = bsp;
  plan.image_bytes = bsp.image_bytes;
  return plan;
}

// E18's economy cell: a greedy tenant holds every node with long
// checkpointed tasks, then six equal-weight tenants submit deadline-bid
// streams; preemption migrates the greedy tasks through the checkpoint
// plane.
Plan plan_tenant_mix(std::uint64_t seed) {
  Plan plan;
  plan.name = "tenant-mix";
  plan.config = core::quiet_cluster(14, seed, 1000.0, "economy");
  plan.config.ckpt.enabled = true;
  plan.config.sched.enabled = true;
  plan.config.sched.preemption = true;
  plan.config.sched.max_preemptions_per_wave = 2;
  plan.config.sched.tenants.push_back({"greedy", 1.0, 0, 0});
  for (int t = 0; t < 6; ++t) {
    plan.config.sched.tenants.push_back({"user" + std::to_string(t), 1.0, 0, 0});
  }
  plan.warmup = 3 * kMinute;
  asct::AppBuilder greedy("greedy-batch");
  greedy.tasks(14, 1'800'000.0)
      .tenant("greedy")
      .checkpoint_period(30 * kSecond, 256 * kKiB);
  plan.apps.push_back({0, greedy});
  Rng rng(seed ^ 0x3e1d5a77);
  for (int t = 0; t < 6; ++t) {
    asct::AppBuilder small("user" + std::to_string(t) + "-stream");
    small.kind(protocol::AppKind::kParametric)
        .tasks(100, 60'000.0)
        .tenant("user" + std::to_string(t))
        .bid(10.0 + t, 40 * kMinute);
    plan.apps.push_back({kMinute + rng.uniform_int(0, 20) * kSecond, small});
  }
  plan.deadline = 6 * kHour;
  plan.image_bytes = 256 * kKiB;
  return plan;
}

std::optional<Plan> make_plan(const std::string& workload, std::uint64_t seed) {
  if (workload == "iup-campus") return plan_iup_campus(seed);
  if (workload == "task-burst") return plan_task_burst(seed);
  if (workload == "bsp-ckpt") return plan_bsp_ckpt(seed);
  if (workload == "tenant-mix") return plan_tenant_mix(seed);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Phase spans (traced run): host-time intervals around the benchmark's own
// calls into the grid, kept in memory and written as JSONL at the end.
// ---------------------------------------------------------------------------

struct Span {
  int id;
  int parent;  // 0 = root
  std::string name;
  double start_s;
  double end_s;
  std::string detail;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int begin(const std::string& name, int parent = 0) {
    if (!enabled_) return 0;
    spans_.push_back({static_cast<int>(spans_.size()) + 1, parent, name,
                      seconds_since(origin_), -1.0, ""});
    return spans_.back().id;
  }
  void end(int id, std::string detail = "") {
    if (!enabled_ || id == 0) return;
    Span& span = spans_[static_cast<std::size_t>(id - 1)];
    span.end_s = seconds_since(origin_);
    span.detail = std::move(detail);
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
          << s.name << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
          << ",\"detail\":\"" << s.detail << "\"}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// One round.
// ---------------------------------------------------------------------------

struct Submitted {
  protocol::ApplicationSpec spec;
  AppId id;
};

struct RoundResult {
  double setup_s = 0;
  double wall_s = 0;
  double warmup_s = 0;
  double submit_s = 0;
  double drain_s = 0;
  double peak_rss_mb = 0;
  double makespan_s = 0;
  double turnaround_p50_s = 0;
  double wire_mb = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string digest;
  std::map<std::string, bool> checks;
  std::vector<double> submit_us;  // host time of each Asct::submit call
  std::size_t max_queue = 0;      // GRM ready-queue depth, peak over samples
  double mean_pending = 0;        // engine queue depth, mean over samples
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

class Fnv {
 public:
  template <class T>
  void add(const T& value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Sim-time outcome of the round, digested: the ASCT event stream (kind,
/// task, time), the network totals and the number of events fired. Equal
/// seeds must give equal digests.
std::string outcome_digest(core::Grid& grid, core::Cluster& cluster) {
  Fnv fnv;
  for (const auto& event : cluster.asct().events()) {
    fnv.add(static_cast<std::uint8_t>(event.kind));
    fnv.add(event.task.value);
    fnv.add(event.at);
  }
  const auto net = grid.network().stats();
  fnv.add(net.messages);
  fnv.add(net.bytes);
  fnv.add(grid.engine().events_fired());
  return fnv.hex();
}

/// Exactly-once ledger: every submitted task completes once by the
/// deadline, and every application is accepted and done. A BSP rank counts
/// as complete when its application completes.
void check_ledger(core::Cluster& cluster, const std::vector<Submitted>& apps,
                  SimTime deadline, RoundResult& out) {
  std::map<std::uint64_t, int> completions;
  std::map<std::uint64_t, SimTime> completed_at;
  for (const auto& event : cluster.asct().events()) {
    if (event.kind != protocol::AppEventKind::kTaskCompleted) continue;
    ++completions[event.task.value];
    completed_at[event.task.value] = event.at;
  }
  for (const Submitted& app : apps) {
    const asct::AppProgress* progress = cluster.asct().progress(app.id);
    const bool app_ok = progress != nullptr && progress->accepted &&
                        progress->done && !progress->failed &&
                        progress->completed_at <= deadline;
    for (const auto& task : app.spec.tasks) {
      ++out.attempted;
      bool ok = app_ok;
      if (app.spec.kind != protocol::AppKind::kBsp) {
        const auto it = completions.find(task.id.value);
        ok = ok && it != completions.end() && it->second == 1 &&
             completed_at[task.id.value] <= deadline;
      } else {
        ok = ok && completions[task.id.value] <= 1;
      }
      if (!ok) ++out.failed;
    }
  }
}

struct Round {
  std::unique_ptr<core::Grid> grid;
  core::Cluster* cluster = nullptr;
  std::vector<Submitted> apps;
  RoundResult result;
};

/// Build the grid (timed as set-up), then drive the workload: warm-up, the
/// open-loop submission schedule, and the drain to the last completion.
void run_round(const Plan& plan, std::uint64_t seed, SpanLog& spans, Round& round) {
  RoundResult& r = round.result;
  core::ClusterConfig config = plan.config;
  const auto setup_begin = Clock::now();
  round.grid = std::make_unique<core::Grid>(seed);
  round.grid->run_until(plan.start);  // empty queue: only moves the clock
  round.cluster = &round.grid->add_cluster(std::move(config));
  r.setup_s = seconds_since(setup_begin);

  core::Grid& grid = *round.grid;
  core::Cluster& cluster = *round.cluster;
  std::vector<double> pending_samples;
  auto sample = [&] {
    pending_samples.push_back(static_cast<double>(grid.engine().pending()));
    r.max_queue = std::max(r.max_queue, cluster.grm().queue_length());
  };

  const auto wall_begin = Clock::now();
  const int root = spans.begin("round");
  int span = spans.begin("phase.warmup", root);
  auto t0 = Clock::now();
  grid.run_until(plan.start + plan.warmup);
  r.warmup_s = seconds_since(t0);
  spans.end(span);
  sample();

  const SimTime first_submit = plan.start + plan.warmup;
  span = spans.begin("phase.submit", root);
  t0 = Clock::now();
  std::vector<std::pair<SimTime, const PlannedApp*>> order;
  for (const PlannedApp& app : plan.apps) order.emplace_back(first_submit + app.offset, &app);
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  bool evicted = plan.evict_at < 0;
  std::optional<std::size_t> evicted_node;
  auto maybe_evict = [&](SimTime upto) {
    if (evicted || first_submit + plan.evict_at > upto) return;
    grid.run_until(first_submit + plan.evict_at);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.lrm(i).running_task_count() > 0) {
        node::OwnerLoad busy;
        busy.present = true;
        busy.cpu_fraction = 0.9;
        cluster.machine(i).set_owner_load(busy);
        evicted_node = i;
        break;
      }
    }
    grid.run_until(first_submit + plan.evict_at + plan.evict_for);
    if (evicted_node) cluster.machine(*evicted_node).set_owner_load(node::OwnerLoad{});
    evicted = true;
  };
  for (const auto& [at, app] : order) {
    maybe_evict(at);
    grid.run_until(at);
    const int s = spans.begin("asct.submit", span);
    const auto c0 = Clock::now();
    protocol::ApplicationSpec spec = app->builder.build(cluster.asct().ref());
    const AppId id = cluster.asct().submit(cluster.grm_ref(), spec);
    r.submit_us.push_back(seconds_since(c0) * 1e6);
    spans.end(s, spec.name);
    round.apps.push_back({std::move(spec), id});
    sample();
  }
  r.submit_s = seconds_since(t0);
  spans.end(span);

  span = spans.begin("phase.drain", root);
  t0 = Clock::now();
  const SimTime deadline = first_submit + plan.deadline;
  maybe_evict(kTimeNever);
  for (const Submitted& app : round.apps) {
    grid.run_until_app_done(cluster, app.id, deadline);
    sample();
  }
  r.drain_s = seconds_since(t0);
  spans.end(span);
  r.wall_s = seconds_since(wall_begin);
  spans.end(root, plan.name);
  r.peak_rss_mb = peak_rss_mb();

  double sum = 0;
  for (double p : pending_samples) sum += p;
  r.mean_pending = pending_samples.empty() ? 0 : sum / pending_samples.size();

  // End-to-end outcome in simulated units.
  SimTime first = kTimeNever;
  SimTime last = 0;
  std::vector<double> turnaround;
  for (const Submitted& app : round.apps) {
    const asct::AppProgress* progress = cluster.asct().progress(app.id);
    if (progress == nullptr) continue;
    first = std::min(first, progress->submitted_at);
    if (progress->done) {
      last = std::max(last, progress->completed_at);
      turnaround.push_back(to_seconds(progress->completed_at - progress->submitted_at));
    }
  }
  r.makespan_s = last > first ? to_seconds(last - first) : 0.0;
  r.turnaround_p50_s = median(turnaround);
  r.wire_mb = static_cast<double>(grid.network().stats().bytes) / kMiB;
  r.digest = outcome_digest(grid, cluster);

  check_ledger(cluster, round.apps, deadline, r);
  r.checks["trader_invariants"] = cluster.grm().trader().check_invariants().is_ok();
  if (plan.check_work_conserved) {
    double work = 0;
    for (const Submitted& app : round.apps) {
      for (const auto& task : app.spec.tasks) work += task.work;
    }
    double mips = 0;
    for (const auto& node : plan.config.nodes) mips += node.spec.cpu_mips;
    const double done = cluster.total_work_done();
    // Equal up to the rounding of the LRMs' floating-point work accrual.
    r.checks["work_conserved"] = std::abs(done - work) <= 1e-6 * work;
    r.checks["makespan_bound"] = r.makespan_s >= work / mips;
  }
  if (plan.bsp) {
    const auto* stats = cluster.coordinator().stats(round.apps.front().id);
    const BspExpectation& e = *plan.bsp;
    // supersteps_completed also counts supersteps re-executed after a
    // rollback.
    r.checks["bsp_supersteps"] =
        stats != nullptr &&
        stats->supersteps_completed - stats->supersteps_replayed == e.supersteps;
    r.checks["bsp_ckpt_bytes"] =
        stats != nullptr &&
        stats->ckpt_image_bytes == static_cast<std::int64_t>(stats->checkpoints_committed) *
                                       e.ranks * e.image_bytes;
    r.checks["bsp_restored"] = stats != nullptr && stats->restores >= 1;
  }
}

// ---------------------------------------------------------------------------
// Traced run: per-layer timings of the benchmark's own calls, on inputs from
// the finished grid, plus the program's counters.
// ---------------------------------------------------------------------------

/// Median per-call cost in ns over `reps` timed batches. The batch size
/// doubles until one batch takes at least 4 ms, so cheap calls are not lost
/// in clock resolution.
template <class Fn>
double per_call_ns(Fn&& fn, int reps = 7) {
  std::size_t n = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    if (seconds_since(t0) >= 0.004 || n >= (std::size_t{1} << 26)) break;
    n *= 2;
  }
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return median(samples);
}

class EchoStatusServant : public orb::SkeletonBase {
 public:
  EchoStatusServant() {
    register_op<protocol::NodeStatus, cdr::Empty>(
        "update_status",
        [](const protocol::NodeStatus&) -> Result<cdr::Empty> { return cdr::Empty{}; });
  }
  [[nodiscard]] const char* type_id() const override { return "IDL:perfbench/Echo:1.0"; }
};

struct Layers {
  std::vector<std::pair<std::string, double>> values;
  std::map<std::string, bool> checks;
  void set(const std::string& name, double v) { values.emplace_back(name, v); }
};

std::int64_t sum_counter(const std::map<std::string, MetricRegistry>& hub,
                         const std::string& prefix, const std::string& counter) {
  std::int64_t total = 0;
  for (const auto& [name, registry] : hub) {
    if (name.rfind(prefix, 0) == 0) total += registry.counter_value(counter);
  }
  return total;
}

void trace_layers(const Plan& plan, std::uint64_t seed, Round& round, SpanLog& spans,
                  Layers& out) {
  core::Grid& grid = *round.grid;
  core::Cluster& cluster = *round.cluster;
  const RoundResult& r = round.result;
  grm::Grm& grm = cluster.grm();
  const MetricRegistry& gm = grm.metrics();
  const auto hub = grid.metrics_hub().collect();
  Rng rng(seed ^ 0x5eed7ace);
  const int root = spans.begin("layers");
  auto timed = [&](const std::string& name, auto&& fn) {
    const int s = spans.begin(name, root);
    const double v = fn();
    spans.end(s);
    return v;
  };

  // Inputs from the finished grid.
  std::vector<protocol::NodeStatus> statuses;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    statuses.push_back(cluster.lrm(i).current_status());
  }
  services::Trader& trader = grm.trader();
  const auto offers = trader.offers_of_type(protocol::kNodeServiceType);
  std::vector<services::PropertySet> props;
  for (const auto* offer : offers) props.push_back(offer->properties);
  const std::size_t n_status = statuses.size();
  const std::size_t n_props = std::max<std::size_t>(1, props.size());

  // --- sim ---
  const double events = static_cast<double>(grid.engine().events_fired());
  const std::size_t depth = std::max<std::size_t>(1, static_cast<std::size_t>(r.mean_pending));
  const double schedule_fire_ns = timed("sim.schedule_fire", [&] {
    sim::Engine engine;
    Rng draw(seed);
    const SimDuration horizon = 10 * kMinute;
    for (std::size_t i = 0; i < depth; ++i) {
      engine.schedule_after(draw.uniform_int(0, horizon), [] {});
    }
    return per_call_ns([&](std::size_t) {
      engine.schedule_after(draw.uniform_int(0, horizon), [] {});
      engine.step();
    });
  });
  out.set("sim.events", events);
  out.set("sim.ns_per_event", events > 0 ? r.wall_s * 1e9 / events : 0.0);
  out.set("sim.schedule_fire_ns", schedule_fire_ns);
  out.set("sim.net_messages", static_cast<double>(grid.network().stats().messages));

  // --- cdr / orb / protocol / services / lrm: the Information Update path ---
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& s : statuses) frames.push_back(cdr::encode_message(s));
  const double enc_status = timed("cdr.encode.NodeStatus", [&] {
    return per_call_ns([&](std::size_t i) {
      sink(cdr::encode_message(statuses[i % n_status]).size());
    });
  });
  const double dec_status = timed("cdr.decode.NodeStatus", [&] {
    return per_call_ns([&](std::size_t i) {
      sink(cdr::decode_message<protocol::NodeStatus>(frames[i % n_status]).value().node.value);
    });
  });
  protocol::ReservationRequest reserve;
  reserve.id = ReservationId(1);
  reserve.task = TaskId(1);
  reserve.ram = 32 * kMiB;
  if (plan.config.sched.enabled) {
    reserve.tenant = "user0";
    reserve.bid_budget = 10.0;
    reserve.bid_deadline = 40 * kMinute;
  }
  const double enc_reserve = timed("cdr.encode.ReservationRequest", [&] {
    return per_call_ns([&](std::size_t i) {
      reserve.id = ReservationId(i + 1);
      sink(cdr::encode_message(reserve).size());
    });
  });
  out.set("cdr.encode_ns.NodeStatus", enc_status);
  out.set("cdr.decode_ns.NodeStatus", dec_status);
  out.set("cdr.encode_ns.ReservationRequest", enc_reserve);

  const double roundtrip = timed("orb.roundtrip", [&] {
    orb::DirectTransport transport;
    orb::Orb client(1, transport, nullptr);
    orb::Orb server(2, transport, nullptr);
    const auto ref = server.activate(std::make_shared<EchoStatusServant>());
    return per_call_ns([&](std::size_t i) {
      orb::call<protocol::NodeStatus, cdr::Empty>(
          client, ref, "update_status", statuses[i % n_status],
          [](Result<cdr::Empty> reply) { sink(reply.is_ok() ? 1 : 0); });
    });
  });
  const double orb_requests = static_cast<double>(sum_counter(hub, "orb/", "requests_received"));
  std::int64_t hb_sent = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    hb_sent += cluster.lrm(i).metrics().counter_value("status_updates_sent");
  }
  const double orb_oneways =
      static_cast<double>(hb_sent + sum_counter(hub, "orb/", "oneways_sent"));
  out.set("orb.requests", orb_requests);
  out.set("orb.oneways", orb_oneways);
  out.set("orb.roundtrip_ns", roundtrip);

  services::PropertySet scratch = props.empty() ? services::PropertySet{} : props.front();
  const double update_props = timed("protocol.update_properties", [&] {
    return per_call_ns([&](std::size_t i) {
      protocol::update_properties(statuses[i % n_status], scratch);
    });
  });
  const double from_props = timed("protocol.from_properties", [&] {
    return per_call_ns([&](std::size_t i) {
      sink(protocol::from_properties(props[i % n_props]).node.value);
    });
  });
  out.set("protocol.update_properties_ns", update_props);
  out.set("protocol.from_properties_ns", from_props);

  // The GRM's own query shape: build_constraint for the default task
  // (32 MiB, linux-x86), its default preference and its pool depth.
  const std::string constraint =
      "shareable == true and exportable_cpu > 0 and free_ram_mb >= 32 and "
      "'linux-x86' in platforms";
  const std::string& preference = plan.config.grm.default_preference;
  const std::size_t pool =
      static_cast<std::size_t>(plan.config.grm.max_candidates_per_wave) *
      (plan.config.grm.use_forecast ? 16 : 3);
  const double query_us = timed("services.trader_query", [&] {
    return per_call_ns([&](std::size_t) {
      sink(trader.query(protocol::kNodeServiceType, constraint, preference, pool, &rng)
               .value()
               .size());
    }, 5) / 1000.0;
  });
  const auto compiled = services::Constraint::parse(constraint).value();
  const double eval_ns = timed("services.constraint_eval", [&] {
    return per_call_ns([&](std::size_t i) { sink(compiled.matches(props[i % n_props])); });
  });
  // Refresh last: it rewrites the workload's offers (with their own nodes'
  // current statuses, so the table's content is unchanged).
  std::vector<std::pair<services::OfferId, const protocol::NodeStatus*>> refreshes;
  for (const auto* offer : offers) {
    const auto node = offer->properties.get_int(protocol::kPropNodeId).value_or(-1);
    for (const auto& s : statuses) {
      if (static_cast<std::int64_t>(s.node.value) == node) refreshes.emplace_back(offer->id, &s);
    }
  }
  const double refresh_ns = refreshes.empty() ? 0.0 : timed("services.trader_refresh", [&] {
    return per_call_ns([&](std::size_t i) {
      const auto& [id, status] = refreshes[i % refreshes.size()];
      sink(trader.refresh(id, [status](services::PropertySet& p) {
        protocol::update_properties(*status, p);
      }).is_ok());
    });
  });
  out.set("services.trader_refresh_ns", refresh_ns);
  out.set("services.trader_query_us", query_us);
  out.set("services.constraint_eval_ns", eval_ns);

  const double current_status_ns = timed("lrm.current_status", [&] {
    return per_call_ns([&](std::size_t i) {
      sink(static_cast<std::uint64_t>(cluster.lrm(i % cluster.size()).current_status().timestamp));
    });
  });
  out.set("lrm.current_status_ns", current_status_ns);
  out.set("lrm.status_updates_sent", static_cast<double>(hb_sent));

  // --- grm / lupa: scheduling ---
  const auto query_samples = gm.summaries().find("trader_query_us");
  const double trader_queries =
      query_samples == gm.summaries().end()
          ? 0.0
          : static_cast<double>(query_samples->second.count());
  const double forecast_queries = static_cast<double>(gm.counter_value("forecast_queries"));
  const double forecast_ns = timed("lupa.forecast", [&] {
    lupa::Gupa& gupa = cluster.gupa();
    const SimTime now = grid.engine().now();
    return per_call_ns([&](std::size_t i) {
      protocol::ForecastRequest request;
      request.node = statuses[i % n_status].node;
      request.at = now;
      request.horizon = kMinute;
      sink(static_cast<std::uint64_t>(gupa.forecast(request).p_idle_through * 1000));
    });
  });
  out.set("grm.trader_queries", trader_queries);
  out.set("lupa.forecast_queries", forecast_queries);
  out.set("lupa.forecast_ns", forecast_ns);

  const double rounds = static_cast<double>(gm.counter_value("negotiation_rounds"));
  const double placed = static_cast<double>(gm.counter_value("tasks_placed"));
  out.set("grm.negotiation_rounds", rounds);
  out.set("grm.reservations_refused",
          static_cast<double>(gm.counter_value("reservations_refused_remote")));
  out.set("grm.waves_exhausted", static_cast<double>(gm.counter_value("waves_exhausted")));
  out.set("grm.placements_per_round", rounds > 0 ? placed / rounds : 0.0);
  {
    std::map<std::uint64_t, SimTime> first_scheduled;
    for (const auto& event : cluster.asct().events()) {
      if (event.kind == protocol::AppEventKind::kTaskScheduled) {
        first_scheduled.emplace(event.task.value, event.at);
      }
    }
    std::vector<double> waits;
    for (const Submitted& app : round.apps) {
      const auto* progress = cluster.asct().progress(app.id);
      for (const auto& task : app.spec.tasks) {
        const auto it = first_scheduled.find(task.id.value);
        if (it != first_scheduled.end() && progress != nullptr) {
          waits.push_back(to_seconds(it->second - progress->submitted_at));
        }
      }
    }
    out.set("grm.queue_wait_p50_s", median(waits));
  }

  // --- security / ckpt: the checkpoint data plane, on the workload's own
  // chunk size and image model ---
  const auto& dp = plan.config.ckpt;
  ckpt::ImageModelParams image_params;
  image_params.image_bytes = plan.image_bytes;
  image_params.page_size = dp.page_size;
  image_params.dirty_permille = dp.dirty_permille;
  image_params.dirty_run_pages = dp.dirty_run_pages;
  const ckpt::ImageModel model(round.apps.front().id, 0, image_params);
  const std::vector<std::uint8_t> image = model.render(3);
  const auto spans_fixed = ckpt::chunk_spans(image, dp.chunking);
  std::vector<std::vector<std::uint8_t>> chunks;
  for (const auto& s : spans_fixed) {
    chunks.emplace_back(image.begin() + static_cast<std::ptrdiff_t>(s.offset),
                        image.begin() + static_cast<std::ptrdiff_t>(s.offset + s.size));
  }
  const double image_mib = static_cast<double>(image.size()) / kMiB;
  auto mib_s = [&](double ns_per_image) {
    return ns_per_image > 0 ? image_mib / (ns_per_image * 1e-9) : 0.0;
  };

  const auto abc = security::Sha256::hash(std::string("abc"));
  out.checks["sha256_kat"] =
      security::to_hex(abc) ==
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  const double sha_ns = timed("security.sha256", [&] {
    return per_call_ns([&](std::size_t) {
      for (const auto& c : chunks) sink(security::Sha256::hash(c)[0]);
    }, 5);
  });
  std::vector<std::vector<std::uint8_t>> packed;
  for (const auto& c : chunks) packed.push_back(ckpt::lz_compress(c));
  bool roundtrip_ok = true;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto back = ckpt::lz_decompress(packed[i], chunks[i].size());
    roundtrip_ok = roundtrip_ok && back.is_ok() && back.value() == chunks[i];
  }
  out.checks["lz_roundtrip"] = roundtrip_ok;
  const double lz_c_ns = timed("ckpt.lz_compress", [&] {
    return per_call_ns([&](std::size_t) {
      for (const auto& c : chunks) sink(ckpt::lz_compress(c).size());
    }, 5);
  });
  const double lz_d_ns = timed("ckpt.lz_decompress", [&] {
    return per_call_ns([&](std::size_t) {
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        sink(ckpt::lz_decompress(packed[i], chunks[i].size()).value().size());
      }
    }, 5);
  });
  ckpt::ChunkParams cdc = dp.chunking;
  cdc.chunker = ckpt::Chunker::kCdc;
  const double cdc_ns = timed("ckpt.cdc_chunk", [&] {
    return per_call_ns([&](std::size_t) { sink(ckpt::chunk_spans(image, cdc).size()); }, 5);
  });
  out.set("security.sha256_mb_s", mib_s(sha_ns));
  out.set("ckpt.lz_compress_mb_s", mib_s(lz_c_ns));
  out.set("ckpt.lz_decompress_mb_s", mib_s(lz_d_ns));
  out.set("ckpt.cdc_chunk_mb_s", mib_s(cdc_ns));

  const double shipped = static_cast<double>(sum_counter(hub, "ckpt/", "bytes_shipped"));
  const double pulled = static_cast<double>(sum_counter(hub, "ckpt/", "restore_bytes_pulled"));
  const double raw_added = static_cast<double>(sum_counter(hub, "ckpt/", "raw_bytes_added"));
  const auto* repo_store = cluster.repository().data_plane();
  const double repo_added =
      repo_store != nullptr ? static_cast<double>(repo_store->raw_bytes_added()) : 0.0;
  out.set("ckpt.wire_mb", (shipped + pulled) / kMiB);
  out.set("ckpt.dedup_ratio", repo_store != nullptr ? repo_store->dedup_ratio() : 0.0);
  out.set("ckpt.restores", static_cast<double>(sum_counter(hub, "ckpt/", "restores")));
  double restart_ms = 0;
  double rollbacks = 0;
  for (const Submitted& app : round.apps) {
    if (const auto* stats = cluster.coordinator().stats(app.id)) {
      rollbacks += stats->rollbacks;
      if (stats->restores > 0) {
        restart_ms = to_seconds(stats->restore_time_total) * 1000.0 / stats->restores;
      }
    }
  }
  out.set("bsp.restart_ms", restart_ms);
  out.set("bsp.rollbacks", rollbacks);

  // --- sched: the ready queue at the workload's peak depth and tenants ---
  std::vector<std::string> tenants;
  for (const auto& t : plan.config.sched.tenants) tenants.push_back(t.name);
  if (tenants.empty()) tenants.push_back("");
  const std::size_t qdepth = std::max<std::size_t>(1, r.max_queue);
  const double fq_ns = timed("sched.fairqueue", [&] {
    sched::FairQueue queue;
    queue.configure(plan.config.sched);
    std::uint64_t next = 1;
    for (std::size_t i = 0; i < qdepth; ++i, ++next) {
      queue.push(TaskId(next), tenants[i % tenants.size()], 0);
    }
    return per_call_ns([&](std::size_t i) {
      queue.push(TaskId(next++), tenants[i % tenants.size()],
                 plan.config.sched.enabled ? static_cast<SimTime>(i % 97) * kSecond : 0);
      const auto popped = queue.pop();
      if (popped) queue.account_dispatch(queue.tenant_of(*popped), 60'000.0);
      sink(popped ? popped->value : 0);
    });
  });
  const double dispatches = static_cast<double>(
      gm.counter_value("tasks_placed") + gm.counter_value("waves_exhausted") +
      gm.counter_value("waves_no_candidates"));
  out.set("sched.fairqueue_op_ns", fq_ns);
  out.set("sched.preemptions", static_cast<double>(gm.counter_value("sched_preemptions")));
  out.set("asct.submit_us", median(r.submit_us));

  out.set("phase.warmup_s", r.warmup_s);
  out.set("phase.submit_s", r.submit_s);
  out.set("phase.drain_s", r.drain_s);

  // Estimated busy time per layer: calls counted x cost per call.
  const double updates = static_cast<double>(gm.counter_value("status_updates_received"));
  const std::vector<std::pair<std::string, double>> busy = {
      {"sim", events * schedule_fire_ns * 1e-9},
      {"cdr", (updates * (enc_status + dec_status) + rounds * enc_reserve) * 1e-9},
      {"orb", orb_requests * roundtrip * 1e-9},
      {"protocol", (updates * update_props + forecast_queries * from_props) * 1e-9},
      {"services", (updates * refresh_ns) * 1e-9 + trader_queries * query_us * 1e-6},
      {"lrm", static_cast<double>(hb_sent) * current_status_ns * 1e-9},
      {"lupa", forecast_queries * forecast_ns * 1e-9},
      // Every chunk added to any store was hashed once on its way in.
      {"security", raw_added / kMiB / std::max(1e-9, mib_s(sha_ns))},
      // A new chunk is compressed once at its source and reaches the
      // repository once; every other store ingesting it unpacks it to verify.
      {"ckpt", repo_added / kMiB / std::max(1e-9, mib_s(lz_c_ns)) +
                   (raw_added - repo_added) / kMiB / std::max(1e-9, mib_s(lz_d_ns))},
      {"sched", dispatches * fq_ns * 1e-9},
      {"asct", static_cast<double>(r.submit_us.size()) * median(r.submit_us) * 1e-6},
  };
  for (const auto& [layer, seconds] : busy) {
    out.set(layer + ".est_busy_s", seconds);
    out.set(layer + ".wall_share_pct", r.wall_s > 0 ? 100.0 * seconds / r.wall_s : 0.0);
  }
  spans.end(root);
}

// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: igbench --workload <iup-campus|task-burst|bsp-ckpt|tenant-mix> "
               "--seed <n> [--trace <spans.jsonl>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--trace") {
      trace_path = value;
    } else {
      return usage();
    }
  }
  const auto plan = have_seed ? make_plan(workload, seed) : std::nullopt;
  if (!plan) return usage();

  const bool traced = !trace_path.empty();
  SpanLog spans(traced);
  Round round;
  run_round(*plan, seed, spans, round);
  Layers layers;
  if (traced) trace_layers(*plan, seed, round, spans, layers);
  const RoundResult r = std::move(round.result);

  // Extra set-ups after the round (so they cannot touch its peak RSS): the
  // reported set-up time is the median over all of them.
  std::vector<double> setups = {r.setup_s};
  round = Round{};
  for (int i = 1; i < kSetupReps; ++i) {
    core::ClusterConfig config = plan->config;
    const auto t0 = Clock::now();
    core::Grid grid(seed);
    grid.run_until(plan->start);
    grid.add_cluster(std::move(config));
    setups.push_back(seconds_since(t0));
  }

  std::ostringstream json;
  json << "{\"workload\":\"" << plan->name << "\",\"seed\":" << seed
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"digest\":\"" << r.digest << "\",\"setup_s\":" << json_number(median(setups))
       << ",\"wall_s\":" << json_number(r.wall_s)
       << ",\"peak_rss_mb\":" << json_number(r.peak_rss_mb)
       << ",\"makespan_s\":" << json_number(r.makespan_s)
       << ",\"app_turnaround_p50_s\":" << json_number(r.turnaround_p50_s)
       << ",\"wire_mb\":" << json_number(r.wire_mb) << ",\"checks\":{";
  bool first = true;
  auto all_checks = r.checks;
  all_checks.insert(layers.checks.begin(), layers.checks.end());
  for (const auto& [name, ok] : all_checks) {
    json << (first ? "" : ",") << "\"" << name << "\":" << (ok ? "true" : "false");
    first = false;
  }
  json << "},\"layers\":{";
  first = true;
  for (const auto& [name, value] : layers.values) {
    json << (first ? "" : ",") << "\"" << name << "\":" << json_number(value);
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());

  if (traced && !spans.write(trace_path)) {
    std::fprintf(stderr, "igbench: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  return 0;
}
