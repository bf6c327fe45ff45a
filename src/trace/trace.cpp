#include "trace/trace.hpp"

#include <ostream>

#include "trace/json.hpp"
#include "trace/metrics.hpp"

namespace isex::trace {
namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// Per-thread cache of the buffer registered with one tracer.  Keyed by the
/// tracer's unique id, not its address: a tracer destroyed and another
/// constructed at the same address must not inherit the stale buffer.
struct TlsEntry {
  std::uint64_t tracer_id = 0;
  std::shared_ptr<void> buffer;
};
thread_local TlsEntry tls_entry;

/// The thread's ambient context.  Written only by ContextScope / Span on
/// this thread, so no synchronization is needed.
thread_local TraceContext tls_context;

std::atomic<std::uint64_t> g_next_trace_id{1};
std::atomic<std::uint64_t> g_next_span_id{1};

}  // namespace

TraceContext current_context() { return tls_context; }

TraceContext exchange_current_context(TraceContext ctx) {
  const TraceContext previous = tls_context;
  tls_context = ctx;
  return previous;
}

std::uint64_t mint_trace_id() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t mint_span_id() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

ContextScope::ContextScope(TraceContext ctx) : previous_(tls_context) {
  tls_context = ctx;
}

ContextScope::~ContextScope() { tls_context = previous_; }

void Span::open(TraceContext& parent_out, std::uint64_t& span_id_out) {
  parent_out = tls_context;
  span_id_out = mint_span_id();
  tls_context = TraceContext{parent_out.trace_id, span_id_out};
}

void Span::close(const TraceContext& parent) { tls_context = parent; }

StageTimer::StageTimer(std::string_view stage)
    : span_("stage:" + std::string(stage)),
      seconds_(MetricsRegistry::global().counter(
          "isex_stage_seconds_total", {{"stage", std::string(stage)}})),
      start_(std::chrono::steady_clock::now()) {}

StageTimer::~StageTimer() {
  seconds_.inc(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count());
}

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  if (tls_entry.tracer_id != id_) {
    auto buffer = std::make_shared<ThreadBuffer>();
    {
      std::lock_guard<std::mutex> lock(buffers_mutex_);
      buffer->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
      buffers_.push_back(buffer);
    }
    tls_entry.tracer_id = id_;
    tls_entry.buffer = buffer;
  }
  return *static_cast<ThreadBuffer*>(tls_entry.buffer.get());
}

void Tracer::append(std::string_view name, EventKind kind, std::uint64_t ts_us,
                    std::uint64_t dur_us, double value, std::uint64_t trace_id,
                    std::uint64_t span_id, std::uint64_t parent_id) {
  ThreadBuffer& buffer = local_buffer();
  TraceEvent event;
  event.name = std::string(name);
  event.kind = kind;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = buffer.tid;
  event.value = value;
  event.trace_id = trace_id;
  event.span_id = span_id;
  event.parent_id = parent_id;
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

void Tracer::record_span(std::string_view name, std::uint64_t ts_us,
                         std::uint64_t dur_us) {
  if (!enabled()) return;
  append(name, EventKind::kSpan, ts_us, dur_us, 0.0);
}

void Tracer::record_span(std::string_view name, std::uint64_t ts_us,
                         std::uint64_t dur_us, std::uint64_t trace_id,
                         std::uint64_t span_id, std::uint64_t parent_id) {
  if (!enabled()) return;
  append(name, EventKind::kSpan, ts_us, dur_us, 0.0, trace_id, span_id,
         parent_id);
}

void Tracer::record_instant(std::string_view name) {
  if (!enabled()) return;
  append(name, EventKind::kInstant, now_us(), 0, 0.0);
}

void Tracer::record_counter(std::string_view name, double value) {
  if (!enabled()) return;
  append(name, EventKind::kCounter, now_us(), 0, value);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> merged;
  std::lock_guard<std::mutex> registry_lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    merged.insert(merged.end(), buffer->events.begin(), buffer->events.end());
  }
  return merged;
}

std::vector<TraceEvent> Tracer::drain() {
  std::vector<TraceEvent> merged;
  std::lock_guard<std::mutex> registry_lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    merged.insert(merged.end(),
                  std::make_move_iterator(buffer->events.begin()),
                  std::make_move_iterator(buffer->events.end()));
    buffer->events.clear();
  }
  return merged;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> registry_lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->events.clear();
  }
  epoch_ = std::chrono::steady_clock::now();
}

std::size_t Tracer::num_events() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> registry_lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    n += buffer->events.size();
  }
  return n;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceEvent> events = snapshot();
  trace::write_chrome_trace(out, events);
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void write_chrome_trace(std::ostream& out,
                        std::span<const TraceEvent> events) {
  std::string text;
  JsonWriter json(text);
  json.begin_object().key("traceEvents").begin_array();
  for (const TraceEvent& e : events) {
    json.newline().begin_object().key("name").string(e.name)
        .key("pid").integer(1).key("tid").integer(e.tid)
        .key("ts").integer(e.ts_us);
    switch (e.kind) {
      case EventKind::kSpan:
        json.key("ph").string("X").key("dur").integer(e.dur_us);
        if (e.span_id != 0) {
          json.key("args").begin_object()
              .key("trace_id").integer(e.trace_id)
              .key("span_id").integer(e.span_id)
              .key("parent_span_id").integer(e.parent_id).end_object();
        }
        break;
      case EventKind::kInstant:
        json.key("ph").string("i").key("s").string("t");
        break;
      case EventKind::kCounter:
        json.key("ph").string("C").key("args").begin_object()
            .key("value").number(e.value).end_object();
        break;
    }
    json.end_object();
  }
  json.newline().end_array().key("displayTimeUnit").string("ms").end_object()
      .newline();
  out << text;
}

}  // namespace isex::trace
