// The benchmark's own spans for the traced run.
//
// A span records name, start, end, its parent span and the job it belongs
// to.  Spans are kept in memory (one mutex-guarded vector; spans close at
// layer-call granularity, far below contention), written to a file at exit
// and reduced to self times: a span's duration minus the part of its
// interval that its children cover.  Children of one span may run
// concurrently on pool workers, so the covered part is the union of their
// intervals, clipped to the parent.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t job = 0;
};

class SpanLog {
 public:
  /// Nanoseconds on the steady clock since the log was created.
  std::uint64_t now_ns() const;
  std::uint64_t next_id();
  void record(const Span& span);

  std::vector<Span> spans() const;

  /// Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  const std::uint64_t epoch_ns_ = raw_now_ns();
  static std::uint64_t raw_now_ns();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span; `parent` 0 makes a root.  The id is available for children
/// started on other threads.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent,
             std::uint64_t job);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

/// Per-span self time in nanoseconds, parallel to `spans`.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// Summed self and inclusive time per span name.
struct SpanTotals {
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans);

/// Inclusive durations (ms) of every span called `name`.
std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name);

}  // namespace perfbench
