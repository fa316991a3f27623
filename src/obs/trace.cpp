#include "obs/trace.hpp"

#include <sstream>

namespace integrade::obs {

namespace {

void append_json_escaped(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

TraceLog::TraceLog(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void TraceLog::append(Span span) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[static_cast<std::size_t>(total_ % capacity_)] = std::move(span);
  }
  ++total_;
}

std::size_t TraceLog::size() const { return ring_.size(); }

std::uint64_t TraceLog::dropped() const {
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

std::vector<Span> TraceLog::snapshot() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  if (total_ <= capacity_) {
    out = ring_;
  } else {
    // Ring has wrapped: oldest retained span sits at total_ % capacity_.
    const std::size_t head = static_cast<std::size_t>(total_ % capacity_);
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

std::string TraceLog::to_jsonl() const {
  std::ostringstream os;
  for (const Span& s : snapshot()) {
    os << "{\"trace\":" << s.trace_id << ",\"span\":" << s.span_id
       << ",\"parent\":" << s.parent_id << ",\"name\":\"" << s.name
       << "\",\"start_us\":" << s.start << ",\"end_us\":" << s.end;
    if (s.app != 0) os << ",\"app\":" << s.app;
    if (s.task != 0) os << ",\"task\":" << s.task;
    if (s.node != 0) os << ",\"node\":" << s.node;
    if (!s.note.empty()) {
      os << ",\"note\":\"";
      append_json_escaped(os, s.note);
      os << "\"";
    }
    os << "}\n";
  }
  return os.str();
}

void TraceLog::clear() {
  ring_.clear();
  total_ = 0;
}

void Tracer::enable(std::size_t capacity) {
  log_ = std::make_unique<TraceLog>(capacity);
}

void Tracer::disable() { log_.reset(); }

Tracer::ActiveSpan Tracer::start(const char* name, TraceContext parent, SimTime now) {
  if (!enabled()) return {};
  ActiveSpan span;
  span.trace_id = parent.valid() ? parent.trace_id : next_trace_id_++;
  span.span_id = next_span_id_++;
  span.parent_id = parent.valid() ? parent.span_id : 0;
  span.name = name;
  span.start = now;
  return span;
}

void Tracer::finish(const ActiveSpan& span, SimTime now, std::string note) {
  if (!enabled() || !span.valid()) return;
  Span out;
  out.trace_id = span.trace_id;
  out.span_id = span.span_id;
  out.parent_id = span.parent_id;
  out.name = span.name;
  out.start = span.start;
  out.end = now;
  out.app = span.app;
  out.task = span.task;
  out.node = span.node;
  out.note = std::move(note);
  log_->append(std::move(out));
}

}  // namespace integrade::obs
