#include "orb/orb.hpp"

#include <cassert>
#include <utility>

#include "common/log.hpp"

namespace integrade::orb {

Status SkeletonBase::dispatch(const std::string& operation, cdr::Reader& args,
                              cdr::Writer& out) {
  auto it = handlers_.find(operation);
  if (it == handlers_.end()) {
    return Status(ErrorCode::kNotFound, "no such operation: " + operation);
  }
  return it->second(args, out);
}

void SkeletonBase::register_raw(const std::string& operation, RawHandler handler) {
  assert(!handlers_.contains(operation) && "duplicate operation");
  handlers_[operation] = std::move(handler);
}

Orb::Orb(NodeAddress self, Transport& transport, sim::Engine* engine,
         OrbOptions options)
    : self_(self),
      transport_(transport),
      engine_(engine),
      options_(options),
      dedup_(options.dedup_window) {
  transport_.bind(self_, [this](NodeAddress src, const std::vector<std::uint8_t>& f) {
    on_frame(src, f);
  });
}

Orb::~Orb() { shutdown(); }

void Orb::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  transport_.unbind(self_);
  // Fail callers; move the map out first since callbacks may re-enter.
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [id, p] : pending) {
    p.timeout.cancel();
    p.retransmit.cancel();
    p.callback(Status(ErrorCode::kUnavailable, "ORB shut down"));
  }
}

ObjectRef Orb::activate(std::shared_ptr<Servant> servant) {
  return activate(std::move(servant), ObjectId(next_object_key_++));
}

ObjectRef Orb::activate(std::shared_ptr<Servant> servant, ObjectId reuse_key) {
  assert(servant != nullptr);
  assert(reuse_key.valid());
  assert(!servants_.contains(reuse_key) && "object key already active");
  // Keep fresh keys ahead of any reused one so they never collide.
  if (reuse_key.value >= next_object_key_) next_object_key_ = reuse_key.value + 1;
  ObjectRef ref;
  ref.host = self_;
  ref.key = reuse_key;
  ref.type_id = servant->type_id();
  servants_[ref.key] = std::move(servant);
  return ref;
}

void Orb::deactivate(ObjectId key) { servants_.erase(key); }

void Orb::invoke(const ObjectRef& target, const std::string& operation,
                 std::vector<std::uint8_t> args, InvokeCallback callback,
                 SimDuration timeout) {
  assert(callback);
  if (shutdown_) {
    callback(Status(ErrorCode::kUnavailable, "ORB shut down"));
    return;
  }
  if (!target.valid()) {
    callback(Status(ErrorCode::kInvalidArgument, "nil object reference"));
    return;
  }
  metrics_.counter("requests_sent").add();

  RequestHeader header;
  header.request_id = RequestId(next_request_id_++);
  header.object_key = target.key;
  header.operation = operation;
  header.response_expected = true;
  if (ambient_.valid()) {
    header.trace_id = ambient_.trace_id;
    header.trace_parent = ambient_.span_id;
  }

  Pending pending;
  pending.callback = std::move(callback);
  if (engine_ != nullptr) {
    pending.timeout = engine_->schedule_after(timeout, [this, id = header.request_id] {
      metrics_.counter("requests_timed_out").add();
      complete(id, Status(ErrorCode::kDeadlineExceeded, "request timed out"));
    });
  }
  const RequestId id = header.request_id;

  auto frame = frame_request(header, args);
  if (engine_ != nullptr && options_.request_retries > 0) {
    pending.frame = frame;  // keep a copy for retransmission
    pending.dest = target.host;
    pending.attempts_left = options_.request_retries;
    pending.retransmit = engine_->schedule_after(options_.retransmit_timeout,
                                                 [this, id] { retransmit(id); });
  }
  pending_[id] = std::move(pending);

  metrics_.counter("bytes_sent").add(static_cast<std::int64_t>(frame.size()));
  transport_.send(self_, target.host, std::move(frame));

  // Synchronous transports (unit tests) deliver the reply during send(); if
  // there is no engine to enforce a deadline and the request is still open,
  // it will never complete — fail it now.
  if (engine_ == nullptr && pending_.contains(id)) {
    complete(id, Status(ErrorCode::kUnavailable, "no reply from host"));
  }
}

void Orb::send_oneway(const ObjectRef& target, const std::string& operation,
                      std::vector<std::uint8_t> args) {
  if (shutdown_ || !target.valid()) return;
  RequestHeader header;
  header.request_id = RequestId(next_request_id_++);
  header.object_key = target.key;
  header.operation = operation;
  header.response_expected = false;
  if (ambient_.valid()) {
    header.trace_id = ambient_.trace_id;
    header.trace_parent = ambient_.span_id;
  }
  auto frame = frame_request(header, args);
  metrics_.counter("oneways_sent").add();
  metrics_.counter("bytes_sent").add(static_cast<std::int64_t>(frame.size()));
  transport_.send(self_, target.host, std::move(frame));
}

void Orb::on_frame(NodeAddress source, const std::vector<std::uint8_t>& bytes) {
  if (shutdown_) return;
  metrics_.counter("bytes_received").add(static_cast<std::int64_t>(bytes.size()));
  auto parsed = parse_frame(bytes);
  if (!parsed.is_ok()) {
    metrics_.counter("malformed_frames").add();
    log_warn("orb", "dropping malformed frame: " + parsed.status().to_string());
    return;
  }
  switch (parsed.value().type) {
    case MessageType::kRequest:
      handle_request(source, parsed.value());
      break;
    case MessageType::kReply:
      handle_reply(parsed.value());
      break;
  }
}

void Orb::retransmit(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.attempts_left <= 0) return;  // budget spent; the deadline decides
  --p.attempts_left;
  metrics_.counter("requests_retransmitted").add();
  auto copy = p.frame;
  metrics_.counter("bytes_sent").add(static_cast<std::int64_t>(copy.size()));
  transport_.send(self_, p.dest, std::move(copy));
  // The transport may deliver synchronously and complete the request,
  // invalidating `it`/`p` — re-find before rearming.
  it = pending_.find(id);
  if (it == pending_.end() || it->second.attempts_left <= 0) return;
  it->second.retransmit = engine_->schedule_after(options_.retransmit_timeout,
                                                  [this, id] { retransmit(id); });
}

void Orb::handle_request(NodeAddress source, const ParsedFrame& frame) {
  metrics_.counter("requests_received").add();
  const RequestHeader& req = frame.request;

  // At-most-once: a request we already executed (retransmission or network
  // duplicate) is never re-dispatched — replay the cached reply instead.
  const DedupKey key{source, req.request_id.value};
  if (options_.dedup_window > 0) {
    if (auto* cached = dedup_.get(key); cached != nullptr) {
      metrics_.counter("duplicate_requests").add();
      if (req.response_expected && !cached->empty()) {
        auto wire = *cached;
        metrics_.counter("bytes_sent").add(static_cast<std::int64_t>(wire.size()));
        transport_.send(self_, source, std::move(wire));
      }
      return;
    }
  }

  // Ambient context for the duration of the dispatch: spans the servant
  // starts and calls it issues inherit the incoming request's trace slot.
  // Dispatch is synchronous and single-threaded, so save/restore suffices.
  struct AmbientGuard {
    Orb& orb;
    obs::TraceContext saved;
    ~AmbientGuard() { orb.ambient_ = saved; }
  } ambient_guard{*this, ambient_};
  ambient_ = obs::TraceContext{req.trace_id, req.trace_parent};

  ReplyHeader reply;
  reply.request_id = req.request_id;
  cdr::Writer out;

  auto servant = servants_.find(req.object_key);
  if (servant == servants_.end()) {
    reply.status = ReplyStatus::kObjectNotExist;
    reply.exception_detail = "no object with key " + to_string(req.object_key);
  } else {
    cdr::Reader args(frame.payload, frame.byte_order);
    const Status status = servant->second->dispatch(req.operation, args, out);
    if (!status.is_ok()) {
      reply.status = status.code() == ErrorCode::kNotFound
                         ? ReplyStatus::kBadOperation
                         : ReplyStatus::kSystemException;
      reply.exception_detail = status.to_string();
      out = cdr::Writer();  // discard partial results
    }
  }

  if (!req.response_expected) {
    // Remember the oneway so a duplicate delivery doesn't dispatch twice.
    if (options_.dedup_window > 0) dedup_.put(key, {});
    return;
  }
  auto wire = frame_reply(reply, out.buffer());
  if (options_.dedup_window > 0) dedup_.put(key, wire);
  metrics_.counter("bytes_sent").add(static_cast<std::int64_t>(wire.size()));
  transport_.send(self_, source, std::move(wire));
}

void Orb::save_dedup(cdr::Writer& w) const {
  const auto& entries = dedup_.entries();
  w.write_u32(static_cast<std::uint32_t>(entries.size()));
  // Least-recent first: replaying put() in write order rebuilds recency.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    w.write_u64(it->first.source);
    w.write_u64(it->first.request_id);
    w.write_octets(it->second);
  }
}

Status Orb::load_dedup(std::uint32_t version, cdr::Reader& r) {
  if (version != kDedupSnapshotVersion) {
    return Status(ErrorCode::kInvalidArgument,
                  "orb_dedup snapshot version " + std::to_string(version) +
                      " unsupported");
  }
  const std::uint32_t count = r.read_u32();
  std::vector<std::pair<DedupKey, std::vector<std::uint8_t>>> incoming;
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    DedupKey key;
    key.source = r.read_u64();
    key.request_id = r.read_u64();
    std::vector<std::uint8_t> reply = r.read_octets();
    incoming.emplace_back(key, std::move(reply));
  }
  if (!r.ok() || incoming.size() != count) {
    return Status(ErrorCode::kInternal, "truncated orb_dedup snapshot");
  }
  if (options_.dedup_window == 0) return Status::ok();
  for (auto& [key, reply] : incoming) {
    // A locally-present entry is newer than the snapshot: keep it.
    if (dedup_.contains(key)) continue;
    dedup_.put(key, std::move(reply));
  }
  return Status::ok();
}

void Orb::handle_reply(const ParsedFrame& frame) {
  const ReplyHeader& rep = frame.reply;
  switch (rep.status) {
    case ReplyStatus::kNoException:
      complete(rep.request_id, frame.payload);
      break;
    case ReplyStatus::kObjectNotExist:
      complete(rep.request_id, Status(ErrorCode::kNotFound, rep.exception_detail));
      break;
    case ReplyStatus::kBadOperation:
      complete(rep.request_id,
               Status(ErrorCode::kInvalidArgument, rep.exception_detail));
      break;
    case ReplyStatus::kSystemException:
      complete(rep.request_id, Status(ErrorCode::kInternal, rep.exception_detail));
      break;
  }
}

void Orb::complete(RequestId id, Result<std::vector<std::uint8_t>> result) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late reply after timeout: discard
  Pending pending = std::move(it->second);
  pending_.erase(it);
  pending.timeout.cancel();
  pending.retransmit.cancel();
  pending.callback(std::move(result));
}

}  // namespace integrade::orb
