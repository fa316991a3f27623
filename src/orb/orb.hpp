// The ORB core: object adapter + request broker.
//
// Each grid node runs one Orb. Servants activated on it receive ObjectRefs
// that any other node can invoke. Invocations are asynchronous: the caller
// passes a completion callback and (when an engine is attached) a deadline;
// replies, timeouts, and transport losses all resolve the callback exactly
// once. This mirrors the deferred-synchronous CORBA style the 2K resource
// management protocols used (paper §4), and is the only sane call model
// inside a discrete-event simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cdr/cdr.hpp"
#include "common/lru.hpp"
#include "common/result.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "orb/ior.hpp"
#include "orb/message.hpp"
#include "orb/transport.hpp"
#include "sim/engine.hpp"

namespace integrade::orb {

/// Server-side object implementation. dispatch() decodes the operation's
/// arguments from `args` and encodes results into `out`; a non-OK status is
/// marshaled back to the caller as a system exception.
class Servant {
 public:
  virtual ~Servant() = default;
  [[nodiscard]] virtual const char* type_id() const = 0;
  virtual Status dispatch(const std::string& operation, cdr::Reader& args,
                          cdr::Writer& out) = 0;
};

/// Convenience servant with a per-operation handler table, so concrete
/// servants register typed lambdas instead of writing a dispatch switch.
class SkeletonBase : public Servant {
 public:
  Status dispatch(const std::string& operation, cdr::Reader& args,
                  cdr::Writer& out) final;

 protected:
  using RawHandler = std::function<Status(cdr::Reader&, cdr::Writer&)>;

  void register_raw(const std::string& operation, RawHandler handler);

  /// Register a typed operation: Req -> Result<Rep>.
  template <class Req, class Rep>
  void register_op(const std::string& operation,
                   std::function<Result<Rep>(const Req&)> handler) {
    register_raw(operation,
                 [handler = std::move(handler)](cdr::Reader& r, cdr::Writer& w) {
                   Req req = cdr::Codec<Req>::decode(r);
                   if (!r.ok()) {
                     return Status(ErrorCode::kInvalidArgument,
                                   "unmarshalable request");
                   }
                   Result<Rep> rep = handler(req);
                   if (!rep.is_ok()) return rep.status();
                   cdr::Codec<Rep>::encode(w, rep.value());
                   return Status::ok();
                 });
  }

 private:
  std::unordered_map<std::string, RawHandler> handlers_;
};

using InvokeCallback = std::function<void(Result<std::vector<std::uint8_t>>)>;

/// Reliability knobs. The defaults are exactly the historical behaviour:
/// no retransmission (a lost request waits out its deadline) and a dedup
/// window that is pure bookkeeping unless the network duplicates frames.
struct OrbOptions {
  /// Extra sends of an unanswered request before the deadline fires.
  /// 0 = never retransmit. Retransmission makes duplicate delivery
  /// possible, which is why the server side keeps a dedup window.
  int request_retries = 0;
  /// Gap between retransmissions of the same request.
  SimDuration retransmit_timeout = 1 * kSecond;
  /// Per-server at-most-once window: the last N (caller, request-id) pairs
  /// whose replies are cached and replayed instead of re-dispatching.
  /// 0 disables dedup entirely.
  std::size_t dedup_window = 256;
};

class Orb {
 public:
  /// `engine` may be null only with a synchronous transport (unit tests);
  /// without an engine there are no deadlines — an unanswered request fails
  /// immediately after send.
  Orb(NodeAddress self, Transport& transport, sim::Engine* engine,
      OrbOptions options = {});
  ~Orb();
  Orb(const Orb&) = delete;
  Orb& operator=(const Orb&) = delete;

  [[nodiscard]] NodeAddress address() const { return self_; }
  [[nodiscard]] const OrbOptions& options() const { return options_; }

  /// Activate a servant; returns the reference clients use to reach it.
  ObjectRef activate(std::shared_ptr<Servant> servant);
  /// Re-activate under a fixed key — lets a restarted server keep the
  /// object references other nodes already hold (persistent-IOR style).
  ObjectRef activate(std::shared_ptr<Servant> servant, ObjectId reuse_key);
  void deactivate(ObjectId key);

  /// Invoke `operation` on a remote object. `args` is the CDR-encoded
  /// argument payload; on success the callback receives the CDR-encoded
  /// result payload.
  void invoke(const ObjectRef& target, const std::string& operation,
              std::vector<std::uint8_t> args, InvokeCallback callback,
              SimDuration timeout = 5 * kSecond);

  /// One-way (no reply expected, no delivery guarantee).
  void send_oneway(const ObjectRef& target, const std::string& operation,
                   std::vector<std::uint8_t> args);

  /// Fail all pending requests and stop receiving. Idempotent.
  void shutdown();
  [[nodiscard]] bool is_shutdown() const { return shutdown_; }

  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] sim::Engine* engine() { return engine_; }

  // --- control-plane snapshots (see docs/snapshots.md) -------------------
  /// Snapshot format version for the "orb_dedup" section.
  static constexpr std::uint32_t kDedupSnapshotVersion = 1;
  /// Serialize the at-most-once dedup window (keys + cached reply frames),
  /// least-recent first so a load replays put() calls in recency order.
  void save_dedup(cdr::Writer& w) const;
  /// Merge a snapshotted dedup window into this ORB's window. Entries whose
  /// key is already present locally are kept (the local entry is newer).
  Status load_dedup(std::uint32_t version, cdr::Reader& r);

  // --- tracing (see docs/observability.md) -------------------------------
  /// Attach the process tracer. The tracer may be disabled; instrumented
  /// components must check `tracer() && tracer()->enabled()` before starting
  /// spans.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Ambient trace context: set while a servant dispatch runs (from the
  /// request's trace slot) or by a TraceScope around outgoing calls; stamped
  /// into every outgoing request header while valid. Single-threaded by
  /// construction — the simulation dispatches servants synchronously.
  [[nodiscard]] obs::TraceContext current_trace() const { return ambient_; }
  void set_current_trace(obs::TraceContext ctx) { ambient_ = ctx; }

 private:
  void on_frame(NodeAddress source, const std::vector<std::uint8_t>& bytes);
  void handle_request(NodeAddress source, const ParsedFrame& frame);
  void handle_reply(const ParsedFrame& frame);
  void complete(RequestId id, Result<std::vector<std::uint8_t>> result);
  void retransmit(RequestId id);

  struct Pending {
    InvokeCallback callback;
    sim::EventHandle timeout;
    // Retransmission state (populated only when request_retries > 0).
    sim::EventHandle retransmit;
    std::vector<std::uint8_t> frame;
    NodeAddress dest = 0;
    int attempts_left = 0;
  };

  /// Requests are identified at-most-once by who sent them plus their
  /// per-caller monotonic id.
  struct DedupKey {
    NodeAddress source = 0;
    std::uint64_t request_id = 0;
    bool operator==(const DedupKey&) const = default;
  };
  struct DedupKeyHash {
    std::size_t operator()(const DedupKey& k) const noexcept {
      // splitmix-style mix of the two words.
      std::uint64_t x = k.source * 0x9e3779b97f4a7c15ULL ^ k.request_id;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };

  NodeAddress self_;
  Transport& transport_;
  sim::Engine* engine_;
  OrbOptions options_;
  bool shutdown_ = false;
  std::uint64_t next_object_key_ = 1;
  std::uint64_t next_request_id_ = 1;
  std::unordered_map<ObjectId, std::shared_ptr<Servant>> servants_;
  std::unordered_map<RequestId, Pending> pending_;
  /// Cached reply wire frames for recently executed requests; an empty
  /// vector marks a deduped request with no response (oneway).
  LruCache<DedupKey, std::vector<std::uint8_t>, DedupKeyHash> dedup_;
  MetricRegistry metrics_;
  obs::Tracer* tracer_ = nullptr;
  obs::TraceContext ambient_;
};

/// RAII ambient-context switch: while alive, requests sent through `orb`
/// carry `ctx`. An invalid ctx is a no-op, so callers can construct one
/// unconditionally from a possibly-inactive span.
class TraceScope {
 public:
  TraceScope(Orb& orb, obs::TraceContext ctx) : orb_(orb) {
    if (ctx.valid()) {
      prev_ = orb.current_trace();
      active_ = true;
      orb.set_current_trace(ctx);
    }
  }
  ~TraceScope() {
    if (active_) orb_.set_current_trace(prev_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Orb& orb_;
  obs::TraceContext prev_;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Typed stubs: encode Req, invoke, decode Rep. These are what generated IDL
// stubs would be; hand-rolled here because the IDL set is small and fixed.
// ---------------------------------------------------------------------------
template <class Req, class Rep>
void call(Orb& orb, const ObjectRef& target, const std::string& operation,
          const Req& request, std::function<void(Result<Rep>)> callback,
          SimDuration timeout = 5 * kSecond) {
  orb.invoke(
      target, operation, cdr::encode_message(request),
      [callback = std::move(callback)](Result<std::vector<std::uint8_t>> raw) {
        if (!raw.is_ok()) {
          callback(raw.status());
          return;
        }
        callback(cdr::decode_message<Rep>(raw.value()));
      },
      timeout);
}

template <class Req>
void oneway(Orb& orb, const ObjectRef& target, const std::string& operation,
            const Req& request) {
  orb.send_oneway(target, operation, cdr::encode_message(request));
}

/// Critical control messages (task reports, application events): plain
/// fire-and-forget by default, but when this ORB is configured for
/// retransmission the message upgrades to an acknowledged call so the
/// at-most-once machinery can recover a lost frame. The target operation
/// must be registered with an Empty reply.
template <class Req>
void reliable_oneway(Orb& orb, const ObjectRef& target,
                     const std::string& operation, const Req& request) {
  if (orb.options().request_retries > 0) {
    call<Req, cdr::Empty>(orb, target, operation, request,
                          [](Result<cdr::Empty>) { /* best effort */ });
  } else {
    oneway(orb, target, operation, request);
  }
}

}  // namespace integrade::orb
