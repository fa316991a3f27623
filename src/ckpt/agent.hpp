// CkptAgent: the per-node actor of the checkpoint data plane.
//
// Each provider node runs one agent next to its LRM. On a save request the
// agent captures the rank's checkpoint image (the deterministic ImageModel —
// the simulator does not run real application code), splits it into chunks,
// stores new chunks in its local ChunkStore, and ships the manifest to the
// repository plus k peer stores — but only the chunks each destination is
// missing (offer/need negotiation), LZ-compressed. On a restore request it
// materializes a manifest, pulling missing chunks peers-first (striped
// across them in parallel — the simulated network has no queuing contention,
// so striping genuinely cuts restart latency) with the central repository as
// fallback; every ingested chunk is decompressed and re-hashed before it is
// accepted.
//
// Determinism: the agent draws no randomness and reads no wall clock; its
// entire behaviour is a function of the request stream, so traces stay
// bit-identical across same-seed runs. When the data plane is disabled no agent
// exists at all — no endpoints, no timers, no wire bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/chunk.hpp"
#include "ckpt/store.hpp"
#include "common/stats.hpp"
#include "orb/orb.hpp"
#include "protocol/messages.hpp"
#include "sim/engine.hpp"

namespace integrade::ckpt {

struct DataPlaneOptions {
  bool enabled = false;
  ChunkParams chunking;
  /// Per-chunk LZ compression before storage/transfer.
  bool compress = true;
  /// Content-addressed dedup. false = the "central whole-image shipping"
  /// baseline: every chunk ships on every save, and restore pulls the whole
  /// image from the repository (local store and peers ignored).
  bool dedup = true;
  /// Peer stores each checkpoint replicates to (besides the repository).
  int replicate_k = 2;
  /// Synthetic image model (see chunk.hpp).
  std::uint32_t page_size = 4096;
  std::uint32_t dirty_permille = 50;
  std::uint32_t dirty_run_pages = 64;
};

/// Servant exposing a ChunkStore over the wire: offer/put/install/get plus
/// prune/drop. Used standalone for the repository's store (manager node) and
/// as the base of the agent's servant.
class StoreServant : public orb::SkeletonBase {
 public:
  using PruneHook = std::function<void(const protocol::CkptPrune&)>;
  using DropHook = std::function<void(const protocol::CkptDrop&)>;
  /// The hooks replace the default prune/drop behaviour (forwarding straight
  /// to the store) — the agent uses them to also clear its image caches.
  explicit StoreServant(ChunkStore& store, PruneHook on_prune = {},
                        DropHook on_drop = {});
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/CkptStore:1.0";
  }
};

class CkptAgent {
 public:
  CkptAgent(sim::Engine& engine, orb::Orb& orb, DataPlaneOptions options);
  ~CkptAgent();
  CkptAgent(const CkptAgent&) = delete;
  CkptAgent& operator=(const CkptAgent&) = delete;

  /// Activate the agent servant (store ops + ckpt_save/ckpt_restore).
  void start();
  void stop();
  [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }

  [[nodiscard]] ChunkStore& store() { return store_; }
  [[nodiscard]] const DataPlaneOptions& options() const { return options_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

  /// Repository store ref for the sequential (LRM-driven) path.
  void set_repository(orb::ObjectRef repository) {
    repository_ = std::move(repository);
  }

  /// BSP path entry points (invoked by the servant; public for tests).
  void handle_save(const protocol::CkptSaveRequest& request);
  void handle_restore(const protocol::CkptRestoreRequest& request);
  void handle_prune(const protocol::CkptPrune& prune);
  void handle_drop(const protocol::CkptDrop& drop);

  /// Sequential path (LRM checkpoint timer): chunk + dedup + compress the
  /// task image and ship new chunks to the repository store — plus `peers`
  /// (preemption-by-migration: the victim's final checkpoint replicates to
  /// the peers the GRM picked, so the next host restores warm). `version`
  /// must be monotonic per (app, rank) — the LRM uses sim time.
  void save_sequential(AppId app, std::int32_t rank, std::int64_t version,
                       Bytes image_bytes,
                       const std::vector<orb::ObjectRef>& peers = {});

  /// Warm prefetch (new host of a preempted task): ask `peers` in order for
  /// the latest (app, rank) manifest and restore it locally, pulling chunks
  /// peers-first with the repository as fallback. Deterministic: peers are
  /// tried in the given order, no timers beyond the ORB's own.
  void warm_restore(AppId app, std::int32_t rank,
                    std::vector<orb::ObjectRef> peers);

  /// Node crash: cancel every in-flight save/restore op. The chunk store
  /// itself survives (it models on-disk state); reachability is governed by
  /// the network endpoint, which the fault injector detaches.
  void abort_inflight();

 private:
  struct LineKey {
    std::uint64_t app;
    std::int32_t rank;
    auto operator<=>(const LineKey&) const = default;
  };
  /// Incremental image state per (app, rank): cached page versions and
  /// chunk refs so a save re-renders and re-hashes only dirty chunks.
  struct LineCache {
    Bytes image_bytes = 0;
    std::int64_t model_step = 0;  // superstep the cache reflects
    std::vector<std::uint64_t> page_versions;
    std::vector<protocol::CkptChunkRef> chunk_refs;  // aligned fixed chunker
    std::int64_t seq_ordinal = 0;  // sequential path: checkpoints taken
  };
  struct SaveOp;
  struct RestoreOp;

  [[nodiscard]] ImageModelParams model_params(Bytes image_bytes) const;
  /// Build + locally install the manifest for (app, rank) at image state
  /// `model_step`, storing any new chunks. Returns the installed manifest.
  protocol::CkptManifest build_manifest(AppId app, std::int32_t rank,
                                        std::int64_t model_step,
                                        std::int64_t version,
                                        Bytes image_bytes);
  void ship_next(const std::shared_ptr<SaveOp>& op);
  void finish_save(const std::shared_ptr<SaveOp>& op, bool ok);
  void restore_step(const std::shared_ptr<RestoreOp>& op);
  void finish_restore(const std::shared_ptr<RestoreOp>& op, bool ok);
  void pin_for_restore(RestoreOp& op, const protocol::CkptHash& hash);
  void release_pins(RestoreOp& op);
  void try_warm_peer(AppId app, std::int32_t rank,
                     std::shared_ptr<std::vector<orb::ObjectRef>> peers,
                     std::size_t index);
  void ingest(RestoreOp& op, const protocol::CkptChunkGetReply& reply,
              bool from_repository);
  [[nodiscard]] std::vector<protocol::CkptChunkData> chunk_payloads(
      const protocol::CkptManifest& manifest,
      const std::vector<std::uint32_t>& indices) const;

  sim::Engine& engine_;
  orb::Orb& orb_;
  DataPlaneOptions options_;
  ChunkStore store_;
  orb::ObjectRef self_ref_;
  orb::ObjectRef repository_;
  std::map<LineKey, LineCache> lines_;
  std::map<LineKey, std::shared_ptr<SaveOp>> saves_;
  std::map<LineKey, std::shared_ptr<RestoreOp>> restores_;
  MetricRegistry metrics_;
  /// Liveness token: ORB callbacks may fire after this agent is destroyed
  /// (the ORB outlives it and fails pending requests at shutdown).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool started_ = false;
};

}  // namespace integrade::ckpt
