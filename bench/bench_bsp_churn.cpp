// E7 + E17 — BSP under churn: checkpoint interval sweep, and the
// content-addressed checkpoint data plane.
//
// Paper §3: parallel checkpointing "can render parallel checkpointing
// prohibitive, due to large overheads", which is why InteGrade adopts BSP
// and checkpoints only at barriers. E7 reproduces the classic interval
// tradeoff (frequent checkpoints cost transfer/commit overhead every k
// supersteps; infrequent ones lose more replayed supersteps per eviction).
//
// E17 attacks the overhead itself: checkpoints become manifests of
// SHA-256-addressed chunks deduped against per-node chunk stores,
// LZ-compressed on the wire, replicated to k peers, and restored peers-first
// after an eviction. The sweep crosses chunk size x compression (plus a
// content-defined-chunking cell) against the central whole-image baseline
// (dedup off, compression off, no replicas — every save ships the full
// image to the cluster manager, every restore pulls it back).
//
// Usage: bench_bsp_churn [out.json] [--quick]
//
// --quick runs the E17 sweep only, on a smaller grid, and exits non-zero
// unless the E17 gates hold:
//   * dedup ratio >= 3x on the repository store,
//   * save-path wire bytes per logical byte reduced >= 5x vs baseline,
//   * mean restart wall clock under churn better than the baseline's.
// For a fixed seed stdout and the JSON are byte-identical across runs — CI
// diffs two runs.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "asct/asct.hpp"
#include "bench_util.hpp"
#include "ckpt/store.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"

using namespace integrade;

namespace {

struct Outcome {
  double elapsed_min = -1;
  std::int64_t replayed = 0;
  int rollbacks = 0;
  int checkpoints = 0;
};

/// Owners interrupt via short random sessions: presence probability p in
/// every slot with low persistence produces ~Poisson interruptions.
core::ClusterConfig churny_cluster(int nodes, double presence,
                                   std::uint64_t seed) {
  auto config = core::quiet_cluster(nodes, seed);
  for (auto& node : config.nodes) {
    node.profile.presence_prob.fill(presence);
    node.profile.persistence_slots = 1.0;  // short bursts
    node.profile.active_cpu_mean = 0.6;
    node.policy.idle_grace = kMinute;
  }
  return config;
}

// ---------------------------------------------------------------------------
// E7: checkpoint interval sweep (full mode only; unchanged experiment).
// ---------------------------------------------------------------------------

Outcome run_interval(int ckpt_every, double presence, std::uint64_t seed) {
  core::Grid grid(seed);
  auto& cluster = grid.add_cluster(churny_cluster(16, presence, seed));
  grid.run_for(2 * kMinute);

  asct::AppBuilder builder("bsp-churn");
  builder.bsp(/*processes=*/8, /*supersteps=*/240,
              /*work_per_superstep=*/10'000.0, /*comm=*/256 * kKiB,
              ckpt_every, /*ckpt_bytes=*/8 * kMiB);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));

  Outcome out;
  if (!grid.run_until_app_done(cluster, app, grid.engine().now() + 72 * kHour)) {
    return out;  // did not converge: reported as elapsed -1
  }
  const auto* stats = cluster.coordinator().stats(app);
  out.elapsed_min = to_seconds(stats->elapsed()) / 60.0;
  out.replayed = stats->supersteps_replayed;
  out.rollbacks = stats->rollbacks;
  out.checkpoints = stats->checkpoints_committed;
  return out;
}

void run_e7() {
  const int intervals[] = {0, 1, 2, 4, 8, 16, 32};

  for (const auto& [label, presence] :
       {std::pair<const char*, double>{"low churn (p=0.10)", 0.10},
        std::pair<const char*, double>{"high churn (p=0.25)", 0.25}}) {
    std::printf("\n-- %s --\n", label);
    bench::Table table({"ckpt-every", "elapsed-min", "replayed", "rollbacks",
                        "commits"});
    for (int k : intervals) {
      // Average four seeds; a timeout in any run is reported as such.
      const int kSeeds = 4;
      double elapsed = 0;
      double replayed = 0;
      double rollbacks = 0;
      double commits = 0;
      bool ok = true;
      for (int s = 0; s < kSeeds; ++s) {
        const Outcome out =
            run_interval(k, presence, 707 + static_cast<std::uint64_t>(s));
        ok = ok && out.elapsed_min > 0;
        elapsed += out.elapsed_min;
        replayed += static_cast<double>(out.replayed);
        rollbacks += out.rollbacks;
        commits += out.checkpoints;
      }
      table.row({k == 0 ? "off" : bench::fmt("%d", k),
                 ok ? bench::fmt("%.1f", elapsed / kSeeds) : "timeout",
                 bench::fmt("%.1f", replayed / kSeeds),
                 bench::fmt("%.1f", rollbacks / kSeeds),
                 bench::fmt("%.1f", commits / kSeeds)});
    }
  }
  std::printf("\nE7 expected shape: with checkpointing off every rollback "
              "replays the whole prefix; tiny intervals pay commit overhead "
              "every step; the sweet spot sits in between and shifts left as "
              "churn rises.\n");
}

// ---------------------------------------------------------------------------
// E17: content-addressed data-plane sweep.
// ---------------------------------------------------------------------------

struct Cell {
  std::string name;
  ckpt::Chunker chunker = ckpt::Chunker::kFixed;
  std::uint32_t chunk_kib = 64;
  bool compress = true;
  bool dedup = true;
  int replicate_k = 2;

  // Results.
  bool converged = false;
  double elapsed_min = 0;
  int rollbacks = 0;
  int checkpoints = 0;
  std::int64_t image_bytes = 0;       // logical bytes checkpointed
  std::int64_t save_wire_bytes = 0;   // chunk payloads shipped on save
  std::int64_t restore_wire_bytes = 0;
  std::int64_t bytes_on_wire = 0;     // save + restore
  double wire_per_logical = 0;        // save-path wire bytes / logical byte
  double dedup_ratio = 0;             // repository store, cumulative
  int restores = 0;
  double restart_ms = 0;              // mean resume() -> all ranks restored
};

struct E17Setup {
  int nodes = 16;
  int ranks = 8;
  int supersteps = 60;
  MInstr work = 10'000.0;
  int ckpt_every = 2;
  Bytes image_bytes = 4 * kMiB;
  double presence = 0.15;
  std::uint64_t seed = 909;
};

void run_cell(Cell& cell, const E17Setup& setup) {
  core::Grid grid(setup.seed);
  auto config = churny_cluster(setup.nodes, setup.presence, setup.seed);
  config.ckpt.enabled = true;
  config.ckpt.chunking.chunker = cell.chunker;
  config.ckpt.chunking.chunk_size = cell.chunk_kib * 1024;
  config.ckpt.compress = cell.compress;
  config.ckpt.dedup = cell.dedup;
  config.ckpt.replicate_k = cell.replicate_k;
  auto& cluster = grid.add_cluster(std::move(config));
  grid.run_for(2 * kMinute);

  asct::AppBuilder builder("bsp-dp");
  builder.bsp(setup.ranks, setup.supersteps, setup.work, /*comm=*/64 * kKiB,
              setup.ckpt_every, setup.image_bytes);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));

  // Guarantee at least one eviction -> rollback -> data-plane restore, on
  // top of whatever the churny owners contribute: a deterministic owner
  // returns to a busy node partway in, then leaves.
  grid.run_for(4 * kMinute);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.lrm(i).running_task_count() > 0) {
      node::OwnerLoad busy;
      busy.present = true;
      busy.cpu_fraction = 0.9;
      cluster.machine(i).set_owner_load(busy);
      break;
    }
  }
  grid.run_for(kMinute);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.machine(i).set_owner_load(node::OwnerLoad{});
  }

  if (!grid.run_until_app_done(cluster, app, grid.engine().now() + 72 * kHour)) {
    return;
  }
  const auto* stats = cluster.coordinator().stats(app);
  const auto* repo_store = cluster.repository().data_plane();
  cell.converged = true;
  cell.elapsed_min = to_seconds(stats->elapsed()) / 60.0;
  cell.rollbacks = stats->rollbacks;
  cell.checkpoints = stats->checkpoints_committed;
  cell.image_bytes = stats->ckpt_image_bytes;
  cell.save_wire_bytes = stats->ckpt_bytes_shipped;
  cell.restore_wire_bytes = stats->restore_bytes_pulled;
  cell.bytes_on_wire = cell.save_wire_bytes + cell.restore_wire_bytes;
  cell.wire_per_logical =
      cell.image_bytes > 0 ? static_cast<double>(cell.save_wire_bytes) /
                                 static_cast<double>(cell.image_bytes)
                           : 0.0;
  cell.dedup_ratio = repo_store != nullptr ? repo_store->dedup_ratio() : 0.0;
  cell.restores = stats->restores;
  cell.restart_ms = stats->restores > 0
                        ? to_seconds(stats->restore_time_total) * 1000.0 /
                              stats->restores
                        : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_bsp_churn.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      json_path = argv[i];
    }
  }

  bench::banner("E7+E17", "BSP under churn: intervals + chunked checkpoints",
                "barrier checkpointing keeps parallel apps progressing on "
                "volatile nodes; content-addressed chunking makes the "
                "checkpoints themselves cheap to ship and fast to restore");

  if (!quick) run_e7();

  E17Setup setup;
  if (quick) {
    setup.nodes = 12;
    setup.supersteps = 30;
    setup.ranks = 6;
  }

  std::vector<Cell> cells;
  {
    // Whole-image shipping at the same replication factor: every save sends
    // the full raw image to the repository and each replica, and restore
    // pulls the full image from the central repository (no peer fallback).
    Cell baseline;
    baseline.name = "whole-image";
    baseline.compress = false;
    baseline.dedup = false;
    cells.push_back(baseline);
  }
  const std::vector<std::uint32_t> sizes =
      quick ? std::vector<std::uint32_t>{64}
            : std::vector<std::uint32_t>{16, 64, 256};
  for (std::uint32_t kib : sizes) {
    for (bool compress : {true, false}) {
      Cell cell;
      cell.name = bench::fmt("fixed-%uKiB-%s", kib, compress ? "lz" : "raw");
      cell.chunk_kib = kib;
      cell.compress = compress;
      cells.push_back(cell);
    }
  }
  {
    Cell cdc;
    cdc.name = "cdc-64KiB-lz";
    cdc.chunker = ckpt::Chunker::kCdc;
    cells.push_back(cdc);
  }

  std::printf("\n-- E17: data-plane sweep (%d nodes, %d ranks, %d supersteps, "
              "%.0f MiB images, ckpt every %d) --\n",
              setup.nodes, setup.ranks, setup.supersteps,
              static_cast<double>(setup.image_bytes) / kMiB, setup.ckpt_every);
  bench::Table table({"cell", "dedup", "wire/logical", "wire-MiB",
                      "restores", "restart-ms", "elapsed-min"});
  for (auto& cell : cells) {
    run_cell(cell, setup);
    table.row({cell.name,
               cell.converged ? bench::fmt("%.2fx", cell.dedup_ratio) : "-",
               cell.converged ? bench::fmt("%.3f", cell.wire_per_logical) : "-",
               cell.converged
                   ? bench::fmt("%.1f",
                                static_cast<double>(cell.bytes_on_wire) / kMiB)
                   : "-",
               bench::fmt("%d", cell.restores),
               cell.restores > 0 ? bench::fmt("%.0f", cell.restart_ms) : "-",
               cell.converged ? bench::fmt("%.1f", cell.elapsed_min)
                              : "timeout"});
  }

  // --- gates ---
  const Cell* baseline = &cells[0];
  const Cell* best = nullptr;  // fixed + dedup + compress reference cell
  for (const auto& cell : cells) {
    if (cell.chunker == ckpt::Chunker::kFixed && cell.dedup && cell.compress &&
        cell.chunk_kib == 64) {
      best = &cell;
    }
  }
  bool gates_ok = baseline->converged && best != nullptr && best->converged;
  double wire_reduction = 0;
  double restart_speedup = 0;
  if (gates_ok) {
    wire_reduction = best->wire_per_logical > 0
                         ? baseline->wire_per_logical / best->wire_per_logical
                         : 0.0;
    restart_speedup = best->restart_ms > 0 && best->restores > 0
                          ? baseline->restart_ms / best->restart_ms
                          : 0.0;
    if (best->dedup_ratio < 3.0) {
      std::printf("\nGATE FAIL: dedup ratio %.2fx < 3x\n", best->dedup_ratio);
      gates_ok = false;
    }
    if (wire_reduction < 5.0) {
      std::printf("\nGATE FAIL: wire reduction %.2fx < 5x vs whole-image\n",
                  wire_reduction);
      gates_ok = false;
    }
    if (baseline->restores < 1 || best->restores < 1 ||
        best->restart_ms >= baseline->restart_ms) {
      std::printf("\nGATE FAIL: restart %.0f ms not better than baseline "
                  "%.0f ms (restores %d vs %d)\n",
                  best->restart_ms, baseline->restart_ms, best->restores,
                  baseline->restores);
      gates_ok = false;
    }
  } else {
    std::printf("\nGATE FAIL: baseline or reference cell did not converge\n");
  }

  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"bsp_churn\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"nodes\": %d,\n  \"ranks\": %d,\n", setup.nodes,
                 setup.ranks);
    std::fprintf(f, "  \"supersteps\": %d,\n  \"image_mib\": %.1f,\n",
                 setup.supersteps, static_cast<double>(setup.image_bytes) / kMiB);
    std::fprintf(f, "  \"dedup_ratio_best\": %.4f,\n",
                 best != nullptr ? best->dedup_ratio : 0.0);
    std::fprintf(f, "  \"wire_reduction_best\": %.4f,\n", wire_reduction);
    std::fprintf(f, "  \"restart_speedup\": %.4f,\n", restart_speedup);
    std::fprintf(f, "  \"gates_ok\": %s,\n", gates_ok ? "true" : "false");
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(f, "    {\"cell\": \"%s\", \"chunker\": \"%s\", "
                      "\"chunk_kib\": %u, \"compress\": %s, \"dedup\": %s, "
                      "\"replicate_k\": %d, \"converged\": %s, "
                      "\"dedup_ratio\": %.4f, \"bytes_on_wire\": %lld, "
                      "\"wire_bytes_per_logical\": %.4f, \"restores\": %d, "
                      "\"restart_ms\": %.2f, \"checkpoints\": %d, "
                      "\"rollbacks\": %d, \"elapsed_min\": %.2f}%s\n",
                   c.name.c_str(),
                   c.chunker == ckpt::Chunker::kCdc ? "cdc" : "fixed",
                   c.chunk_kib, c.compress ? "true" : "false",
                   c.dedup ? "true" : "false", c.replicate_k,
                   c.converged ? "true" : "false", c.dedup_ratio,
                   static_cast<long long>(c.bytes_on_wire),
                   c.wire_per_logical, c.restores, c.restart_ms,
                   c.checkpoints, c.rollbacks, c.elapsed_min,
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "\nwarning: cannot write %s\n", json_path);
  }

  std::printf("reproduction: %s (dedup %.2fx, wire reduction %.2fx, restart "
              "speedup %.2fx)\n",
              gates_ok ? "HOLDS" : "FAILS",
              best != nullptr ? best->dedup_ratio : 0.0, wire_reduction,
              restart_speedup);
  return gates_ok ? 0 : 1;
}
