// Structured tracing — the event backbone of the observability layer.
//
// A Tracer records typed events (spans with a duration, instants, counter
// samples) into per-thread buffers: every thread appends to its own buffer
// under its own uncontended mutex, so recording never blocks on other
// threads and within-thread event order is preserved by construction.  The
// buffers are registered with the tracer and outlive their thread, so
// nothing is lost when a pool worker exits before the flush.
//
// Cost model: every hook first reads one relaxed atomic flag.  With no sink
// configured (the default) that load-and-branch is the *entire* cost — no
// clock read, no allocation, no lock (bench/perf_trace measures it).  When
// enabled, an event is one steady_clock read plus an append under the
// thread's own mutex.
//
// Export: snapshot()/drain() merge the buffers (per-thread order intact);
// write_chrome_trace() emits the Chrome trace_event JSON that
// chrome://tracing and Perfetto load directly.  docs/OBSERVABILITY.md walks
// through the format.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace isex::trace {

class Counter;

enum class EventKind : std::uint8_t {
  kSpan,     ///< completed span: [ts_us, ts_us + dur_us]
  kInstant,  ///< point event
  kCounter,  ///< sampled value
};

struct TraceEvent {
  std::string name;
  EventKind kind = EventKind::kInstant;
  /// Microseconds since the tracer's epoch (its construction or reset()).
  std::uint64_t ts_us = 0;
  /// Span length; zero for instants and counters.
  std::uint64_t dur_us = 0;
  /// Small per-thread id assigned at first record (1, 2, ...).
  std::uint32_t tid = 0;
  /// Counter sample; zero otherwise.
  double value = 0.0;
  /// Context ids (zero = untracked).  trace_id groups every span that
  /// descends from one root (a CLI run, a server job); span_id is this
  /// span's own id; parent_id is the span that was current when this one
  /// opened.  Exported as "args" in the Chrome trace so Perfetto queries
  /// and tools/validate_trace.py can reconstruct the tree.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

/// The ambient trace context of the current thread: which trace this thread
/// is working for and which span is its innermost open parent.  Propagated
/// across thread-pool hops by ContextScope (runtime::ThreadPool::parallel_for
/// captures the poster's context and a worker installs it around its claims
/// from that group), so a fanned-out task's spans parent under the stage/job
/// that spawned it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool active() const { return trace_id != 0 || span_id != 0; }
};

/// The calling thread's current context ({0,0} when untracked).
TraceContext current_context();

/// Replaces the calling thread's context and returns the previous one —
/// the manual save/restore primitive behind ContextScope, for holders whose
/// lifetime is not a lexical scope.
TraceContext exchange_current_context(TraceContext ctx);

/// Process-unique nonzero ids.  A trace id identifies one root-of-work
/// (CLI invocation, server job); span ids identify individual spans.
std::uint64_t mint_trace_id();
std::uint64_t mint_span_id();

/// RAII: installs `ctx` as the calling thread's context, restores the
/// previous context on destruction.  Cost is two TLS stores; safe to use
/// on any thread, nests arbitrarily.
class ContextScope {
 public:
  explicit ContextScope(TraceContext ctx);
  ~ContextScope();

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext previous_;
};

class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Hot-path gate: every record_* call is a no-op (one relaxed atomic
  /// load) while disabled.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Microseconds since the tracer epoch (monotonic).
  std::uint64_t now_us() const;

  void record_span(std::string_view name, std::uint64_t ts_us,
                   std::uint64_t dur_us);
  /// Span with explicit context ids (zero ids = untracked).  Used by the
  /// Span RAII helper and by the server's per-job root spans.
  void record_span(std::string_view name, std::uint64_t ts_us,
                   std::uint64_t dur_us, std::uint64_t trace_id,
                   std::uint64_t span_id, std::uint64_t parent_id);
  void record_instant(std::string_view name);
  void record_counter(std::string_view name, double value);

  /// Merged copy of every thread's buffer, per-thread order preserved
  /// (events of one thread appear in record order, grouped by thread).
  std::vector<TraceEvent> snapshot() const;

  /// snapshot(), then empties the buffers.  The epoch is unchanged.
  std::vector<TraceEvent> drain();

  /// Drops all buffered events and restarts the epoch at zero.
  void reset();

  std::size_t num_events() const;

  void write_chrome_trace(std::ostream& out) const;

  /// Process-wide tracer every library hook records into.
  static Tracer& global();

 private:
  struct ThreadBuffer {
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
  };

  ThreadBuffer& local_buffer();
  void append(std::string_view name, EventKind kind, std::uint64_t ts_us,
              std::uint64_t dur_us, double value, std::uint64_t trace_id = 0,
              std::uint64_t span_id = 0, std::uint64_t parent_id = 0);

  const std::uint64_t id_;  ///< distinguishes tracer instances in TLS caches
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex buffers_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: captures the start time if the tracer is enabled at
/// construction, records a completed span on destruction.  When the tracer
/// is disabled the constructor is a single flag test and the destructor a
/// null check.
///
/// An enabled Span participates in context propagation: it inherits the
/// thread's current TraceContext as its parent, mints its own span id, and
/// installs {inherited trace id, own span id} as the current context for
/// its lifetime — so spans (and pool tasks submitted) inside its scope
/// parent under it.
class Span {
 public:
  explicit Span(std::string_view name, Tracer& tracer = Tracer::global())
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      name_ = name;
      start_us_ = tracer_->now_us();
      open(parent_, span_id_);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      close(parent_);
      tracer_->record_span(name_, start_us_, tracer_->now_us() - start_us_,
                           parent_.trace_id, span_id_, parent_.span_id);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  /// Out-of-line TLS manipulation (mint id, swap contexts) so the header
  /// does not need the thread_local definition.
  static void open(TraceContext& parent_out, std::uint64_t& span_id_out);
  static void close(const TraceContext& parent);

  Tracer* tracer_;
  std::string name_;
  std::uint64_t start_us_ = 0;
  std::uint64_t span_id_ = 0;
  TraceContext parent_;
};

/// RAII timer of one design-flow stage (Fig 3.1.1): a `stage:<stage>` Span
/// on the global tracer, so pool tasks fanned out inside the stage nest
/// under it, and on close the scope's wall time added to the global
/// registry's isex_stage_seconds_total{stage="<stage>"} counter, traced or
/// not.
class StageTimer {
 public:
  explicit StageTimer(std::string_view stage);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Span span_;
  Counter& seconds_;
  std::chrono::steady_clock::time_point start_;
};

/// Chrome trace_event "JSON Object Format": {"traceEvents": [...]} with
/// spans as ph:"X" complete events, counters as ph:"C", instants as ph:"i".
void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events);

/// Escapes `\`, `"`, and control characters for embedding in JSON strings.
std::string json_escape(std::string_view s);

}  // namespace isex::trace
