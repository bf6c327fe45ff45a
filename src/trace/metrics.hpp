// MetricsRegistry — named counters, gauges, and histograms with a
// Prometheus-text-format snapshot writer.
//
// Metrics are the always-on side of the observability layer (the tracer is
// the opt-in side): library code resolves a metric once (a mutex-guarded
// map lookup) and then updates it with plain atomics, so the steady-state
// cost of a counter increment is one CAS on a cache line nobody else
// rarely touches.  References returned by the registry are stable for the
// registry's lifetime.
//
// Identity is (name, sorted labels) exactly as Prometheus renders it:
// `isex_stage_seconds_total{stage="exploration"}`.  Asking for an existing
// key returns the existing metric; asking with a different kind is a
// programming error (asserted).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace isex::trace {

namespace detail {
/// fetch_add for atomic<double> via CAS (portable pre-C++20-library).
inline void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonically increasing value (Prometheus counter).
class Counter {
 public:
  void inc(double delta = 1.0) { detail::atomic_add(value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time value (Prometheus gauge).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) { detail::atomic_add(value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Cumulative histogram over fixed ascending bucket bounds; an observation
/// lands in the first bucket whose bound is >= the value, or the implicit
/// +Inf bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);
  /// Adds observations tallied elsewhere: bins[i] values in bin i
  /// (bin_counts() layout) that sum to `sum`.  Leaves the state that
  /// observing each value would.
  void observe_binned(std::span<const std::uint64_t> bins, double sum);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bin counts, bounds().size() + 1 entries (last is +Inf).
  std::vector<std::uint64_t> bin_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> bins_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  /// `bounds` is only consulted when the histogram does not exist yet.
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       const Labels& labels = {});

  /// Prometheus text exposition format, one `# TYPE` line per metric name,
  /// series sorted by (name, labels).
  void write_prometheus(std::ostream& out) const;

  /// Every series of the counter family `name` as (labels, value), in
  /// write_prometheus order.  Registers nothing.
  std::vector<std::pair<Labels, double>> counter_family(
      std::string_view name) const;

  /// Zeroes every registered metric (registrations and the references
  /// handed out stay valid).  Benches use this between A/B sweeps.
  void reset();

  std::size_t num_series() const;

  /// Process-wide registry every library hook records into.
  static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Looks up or registers the (name, sorted labels) series and — under the
  /// same lock — creates its payload, so concurrent first use is safe.
  /// `bounds` is consumed when a histogram is created, ignored otherwise.
  Entry& find_or_create(std::string_view name, const Labels& labels,
                        Kind kind, std::vector<double>* bounds = nullptr);

  mutable std::mutex mutex_;
  /// Linear registry: series count is small and callers cache the returned
  /// reference, so registration cost does not matter.  Sorted at write time.
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Renders `name{k1="v1",k2="v2"}` (labels sorted by key; bare name when
/// empty) — the series identity used by the registry and the validator.
std::string render_series(std::string_view name, const Labels& labels);

}  // namespace isex::trace
