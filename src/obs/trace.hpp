// Observability layer, part 1: distributed tracing in sim-time.
//
// A TraceContext (trace id + parent span id) rides in ORB request headers
// (a flags-bit service-context slot, see orb/message.hpp), so one task
// submission yields a causally-linked span tree across
// ASCT → GRM → Trader query → LRM reserve/execute → task report.
//
// Design constraints, in order:
//  1. Zero overhead when disabled: every hot-path hook is a single branch on
//     Tracer::enabled(), no allocation, and request frames are byte-identical
//     to the untraced wire format (the trace slot is only encoded when a
//     context is present).
//  2. Determinism: span ids come from a plain counter, never from an Rng
//     stream, and spans are timed in sim-time — enabling tracing must not
//     change any scheduling decision. (It does grow traced frames, which
//     shifts simulated network transfer times; that is a modelled effect,
//     not nondeterminism.)
//  3. Bounded memory: finished spans land in a fixed-capacity ring
//     (TraceLog); once full, the oldest spans are overwritten and counted
//     as dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace integrade::obs {

/// Wire-propagated causality slot: which trace this request belongs to and
/// which span caused it. trace_id 0 means "no context".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

/// A finished span: one named interval of sim-time attributed to a trace.
/// app/task/node are optional domain annotations (0 = unset).
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  const char* name = "";  // always a string literal
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t app = 0;
  std::uint64_t task = 0;
  std::uint64_t node = 0;
  std::string note;  // outcome detail ("granted", "refused: busy", ...)
};

/// Fixed-capacity ring of finished spans with a JSON-lines dump.
class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity);

  void append(Span span);

  /// Spans currently retained (≤ capacity).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Spans ever appended, including overwritten ones.
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t dropped() const;

  /// Retained spans, oldest first.
  [[nodiscard]] std::vector<Span> snapshot() const;
  /// One JSON object per line, oldest first (see docs/observability.md).
  [[nodiscard]] std::string to_jsonl() const;

  void clear();

 private:
  std::vector<Span> ring_;
  std::size_t capacity_;
  std::uint64_t total_ = 0;
};

/// Span factory. Disabled by default: start() returns an inactive handle and
/// finish() on it is a no-op, so instrumentation can run unconditionally
/// behind a cheap enabled() check.
class Tracer {
 public:
  /// A span that has started but not yet finished. Plain value — cheap to
  /// copy into completion callbacks and to store in task records across
  /// asynchronous waves.
  struct ActiveSpan {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    const char* name = "";
    SimTime start = 0;
    std::uint64_t app = 0;
    std::uint64_t task = 0;
    std::uint64_t node = 0;

    [[nodiscard]] bool valid() const { return span_id != 0; }
    /// Context for children of this span.
    [[nodiscard]] TraceContext context() const { return {trace_id, span_id}; }
  };

  void enable(std::size_t capacity = 1 << 16);
  void disable();
  [[nodiscard]] bool enabled() const { return log_ != nullptr; }
  [[nodiscard]] TraceLog* log() { return log_.get(); }
  [[nodiscard]] const TraceLog* log() const { return log_.get(); }

  /// Start a span at sim-time `now`. With a valid parent the span joins that
  /// trace; otherwise it roots a new one. Returns an inactive span when
  /// disabled.
  [[nodiscard]] ActiveSpan start(const char* name, TraceContext parent,
                                 SimTime now);
  /// Finish and record the span (no-op for inactive handles).
  void finish(const ActiveSpan& span, SimTime now, std::string note = {});

 private:
  std::unique_ptr<TraceLog> log_;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
};

}  // namespace integrade::obs
