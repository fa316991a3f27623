// Chunking and hashing for content-addressed checkpoints.
//
// A checkpoint image is split into chunks, each identified by its SHA-256
// digest; a checkpoint then becomes a *manifest* of chunk references, and
// consecutive BSP supersteps — which share most of their pages — dedup
// against the chunk store automatically. Two chunkers are provided:
//
//   * kFixed: fixed-size chunks (default 64 KiB). Cheap, page-aligned, and
//     cache-friendly for the incremental hashing the agent does.
//   * kCdc: content-defined chunking with a Gear rolling hash — boundaries
//     follow content, so an insertion shifts only the chunks it touches.
//
// Everything here is a pure function of its inputs: no RNG draws, no clock
// reads, no global state. That is what lets chunk hashes, manifests, and the
// resulting wire traffic stay bit-identical across same-seed runs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "security/sha256.hpp"

namespace integrade::ckpt {

using ChunkHash = security::Digest;  // SHA-256 of the *raw* chunk bytes

enum class Chunker : std::uint8_t {
  kFixed = 0,
  kCdc = 1,
};

struct ChunkParams {
  Chunker chunker = Chunker::kFixed;
  std::uint32_t chunk_size = 64 * 1024;  // fixed chunker; also CDC target avg
  // CDC bounds: boundary declared when (gear_hash & mask) == 0 with
  // mask = avg-1 (avg forced to a power of two), never before min or past max.
  std::uint32_t cdc_min = 16 * 1024;
  std::uint32_t cdc_max = 256 * 1024;

  bool operator==(const ChunkParams&) const = default;
};

/// A [offset, offset+size) span of the image forming one chunk.
struct ChunkSpan {
  std::uint64_t offset = 0;
  std::uint32_t size = 0;
  bool operator==(const ChunkSpan&) const = default;
};

/// Split an image into chunk spans. Empty image -> empty vector; spans cover
/// the image exactly, in order, with no gaps or overlaps.
std::vector<ChunkSpan> chunk_spans(const std::uint8_t* data, std::size_t size,
                                   const ChunkParams& params);
inline std::vector<ChunkSpan> chunk_spans(const std::vector<std::uint8_t>& data,
                                          const ChunkParams& params) {
  return chunk_spans(data.data(), data.size(), params);
}

// ---------------------------------------------------------------------------
// Synthetic checkpoint image model.
//
// The simulator does not execute real application code, so checkpoint
// *contents* are modeled: a deterministic function of (app, rank, superstep)
// producing images with the two properties real BSP checkpoints have —
// consecutive supersteps differ in a small clustered fraction of pages
// ("dirty pages"), and page contents are partially redundant (compressible).
//
// Dirtiness is modeled as contiguous page extents: each superstep dirties
// `ceil(pages * dirty_permille / 1000 / dirty_run_pages)` runs of
// `dirty_run_pages` pages, placed by a splitmix-style mix of
// (app, rank, superstep, run index). A page's content version is the count
// of dirtying events covering it up to the superstep — so re-executing a
// superstep after rollback regenerates byte-identical pages, and the replay
// traffic dedups against chunks already stored.
// ---------------------------------------------------------------------------
struct ImageModelParams {
  Bytes image_bytes = 0;
  std::uint32_t page_size = 4096;
  std::uint32_t dirty_permille = 50;   // ~5% of pages dirtied per superstep
  std::uint32_t dirty_run_pages = 64;  // dirtied pages come in runs this long

  bool operator==(const ImageModelParams&) const = default;
};

class ImageModel {
 public:
  ImageModel(AppId app, std::int32_t rank, ImageModelParams params);

  [[nodiscard]] std::size_t pages() const { return pages_; }
  [[nodiscard]] std::size_t image_bytes() const { return image_bytes_; }
  [[nodiscard]] const ImageModelParams& params() const { return params_; }

  /// Content version of `page` as of `superstep` (superstep 0 = initial
  /// image, version 0 everywhere). Pure; O(superstep) worst case but the
  /// agent caches per-page versions and advances incrementally.
  [[nodiscard]] std::uint64_t page_version(std::size_t page,
                                           std::int64_t superstep) const;

  /// Pages dirtied by `superstep` (deduplicated, sorted). Superstep 0
  /// dirties nothing — the whole image is "new" then.
  [[nodiscard]] std::vector<std::size_t> dirty_pages(std::int64_t superstep) const;

  /// Render one page's bytes at a given content version into `out`
  /// (resized to page_size, short final page handled).
  void render_page(std::size_t page, std::uint64_t version,
                   std::vector<std::uint8_t>& out) const;

  /// Render the full image at `superstep`. Used by tests and the CDC path;
  /// the fixed-chunk agent path renders only dirty pages.
  [[nodiscard]] std::vector<std::uint8_t> render(std::int64_t superstep) const;

 private:
  [[nodiscard]] std::size_t runs_per_superstep() const;
  [[nodiscard]] std::size_t run_start(std::int64_t superstep,
                                      std::size_t run) const;

  AppId app_;
  std::int32_t rank_;
  ImageModelParams params_;
  std::size_t pages_ = 0;
  std::size_t image_bytes_ = 0;
};

}  // namespace integrade::ckpt
