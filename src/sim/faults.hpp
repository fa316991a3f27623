// Deterministic fault injection for the simulated grid.
//
// InteGrade's premise is that any machine "can fail at any moment" (paper
// §1, §4): LRMs die mid-task, offers go stale, networks partition. The
// FaultInjector is the one place all of that adversity is scripted. It is
// consulted by Network::send on every message (when installed) and can
//
//   * crash and later restart endpoints — a dark node sends and receives
//     nothing; the crash/restart observers let the harness drive the
//     matching middleware lifecycle (Lrm::crash()/restart());
//   * partition and heal segment pairs, or take a segment's uplink down,
//     which severs every inter-segment path through it;
//   * drop, duplicate, or delay individual messages with configured
//     probabilities.
//
// Every random decision draws from the injector's own Rng (forked from the
// run seed), so a scenario replays byte-for-byte: same seed, same crashes,
// same lost messages, same event trace. With no injector installed the
// Network's behaviour — including its Rng consumption — is exactly what it
// was before this subsystem existed.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace integrade::sim {

/// One scripted fault. Scripts are plain vectors of these, ordered or not
/// (each entry schedules independently at its `at` time).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash,        // endpoint goes dark; duration > 0 auto-restarts
    kRestart,      // endpoint comes back
    kPartition,    // segments a<->b stop exchanging traffic; duration > 0 heals
    kHeal,         // undo a partition
    kUplinkDown,   // segment a loses its uplink; duration > 0 restores
    kUplinkUp,     // segment a regains its uplink
    kLoss,         // set global message-loss probability p
    kDuplication,  // set global message-duplication probability p
    kDelay,        // set mean extra delivery delay (exponential), `duration`
  };

  SimTime at = 0;
  Kind kind = Kind::kCrash;
  EndpointId endpoint = 0;   // kCrash / kRestart
  SegmentId a = -1;          // kPartition / kHeal / kUplink*
  SegmentId b = -1;          // kPartition / kHeal
  double p = 0.0;            // kLoss / kDuplication
  SimDuration duration = 0;  // auto-heal window, or the kDelay mean
};

using FaultScript = std::vector<FaultEvent>;

/// Counters the chaos bench and tests read back.
struct FaultStats {
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
  std::int64_t partitions = 0;
  std::int64_t heals = 0;
  std::int64_t endpoint_drops = 0;   // src or dst was dark
  std::int64_t partition_drops = 0;  // path severed
  std::int64_t loss_drops = 0;       // random loss
  std::int64_t duplicates = 0;       // extra copies delivered
  std::int64_t delayed = 0;          // messages given extra delay
};

class FaultInjector {
 public:
  /// What Network::send should do with one message.
  struct SendPlan {
    int copies = 1;              // 0 = drop silently, 2 = deliver twice
    SimDuration extra_delay = 0; // added to the modelled transfer time
  };

  FaultInjector(Engine& engine, Network& network, Rng rng);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // ---- endpoint crash / restart ----
  /// Handlers let the harness crash/restart the middleware living on the
  /// endpoint (e.g. Lrm::crash()); the injector itself only kills traffic.
  using EndpointHandler = std::function<void(EndpointId)>;
  void set_endpoint_handlers(EndpointHandler on_crash,
                             EndpointHandler on_restart);

  void crash_endpoint(EndpointId endpoint);
  void restart_endpoint(EndpointId endpoint);
  [[nodiscard]] bool endpoint_down(EndpointId endpoint) const {
    return down_endpoints_.contains(endpoint);
  }
  [[nodiscard]] std::size_t endpoints_down() const {
    return down_endpoints_.size();
  }

  // ---- partitions and uplink flaps ----
  void partition(SegmentId a, SegmentId b);
  void heal(SegmentId a, SegmentId b);
  void set_uplink_down(SegmentId segment, bool down);
  /// True when traffic can flow between the two segments right now.
  /// Intra-segment traffic (a == b) is never partitioned.
  [[nodiscard]] bool reachable(SegmentId a, SegmentId b) const;

  // ---- per-message perturbation ----
  void set_loss(double p) { loss_ = p; }
  void set_duplication(double p) { duplication_ = p; }
  /// Mean of an exponential extra delivery delay; 0 disables.
  void set_extra_delay(SimDuration mean) { delay_mean_ = mean; }

  // ---- scripting ----
  /// Schedule every event of `script` on the engine. May be called more
  /// than once; scripts compose.
  void run(const FaultScript& script);

  /// Random crash/restart churn over `pool`: endpoints crash at
  /// `crashes_per_minute` (exponential inter-arrival) and stay dark for an
  /// exponential downtime of mean `mean_downtime`, until `until`.
  void enable_crash_churn(std::vector<EndpointId> pool,
                          double crashes_per_minute, SimDuration mean_downtime,
                          SimTime until);

  // ---- Network-facing hooks ----
  /// Consulted once per Network::send. Draws from the injector Rng only for
  /// the perturbations actually enabled, so scenarios stay independently
  /// reproducible.
  [[nodiscard]] SendPlan plan_send(EndpointId src, SegmentId src_segment,
                                   EndpointId dst, SegmentId dst_segment);

  [[nodiscard]] FaultStats stats() const { return stats_; }

  /// Fill `out` with the fault counters under stable names — the shape the
  /// observability hub's snapshot expects (register via
  /// MetricsHub::add_source so values are scraped on demand).
  void export_metrics(MetricRegistry& out) const;

 private:
  void apply(const FaultEvent& event);
  void churn_tick();

  Engine& engine_;
  Network& network_;
  Rng rng_;

  std::unordered_set<EndpointId> down_endpoints_;
  std::set<std::pair<SegmentId, SegmentId>> partitions_;  // normalized a < b
  std::set<SegmentId> downed_uplinks_;

  double loss_ = 0.0;
  double duplication_ = 0.0;
  SimDuration delay_mean_ = 0;

  EndpointHandler on_crash_;
  EndpointHandler on_restart_;

  // Crash churn state.
  std::vector<EndpointId> churn_pool_;
  double churn_per_minute_ = 0.0;
  SimDuration churn_mean_downtime_ = 0;
  SimTime churn_until_ = 0;

  FaultStats stats_;
};

}  // namespace integrade::sim
