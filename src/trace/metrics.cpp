#include "trace/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace isex::trace {
namespace {

/// Prometheus number rendering: integral values without a fractional part
/// (counters are usually counts), everything else with enough precision.
void write_number(std::ostream& out, double value) {
  const auto as_int = static_cast<long long>(value);
  if (static_cast<double>(as_int) == value) {
    out << as_int;
  } else {
    out << value;
  }
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// `le` bound rendering: integral bounds without a fractional part.
std::string format_bound(double bound) {
  const auto as_int = static_cast<long long>(bound);
  if (static_cast<double>(as_int) == bound) return std::to_string(as_int);
  std::string s = std::to_string(bound);
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

void write_label_set(std::ostream& out, const Labels& labels,
                     const std::string* extra_key = nullptr,
                     const std::string* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) return;
  out << '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out << ',';
    first = false;
    out << key << "=\"" << json_escape(value) << '"';
  }
  if (extra_key != nullptr) {
    if (!first) out << ',';
    out << *extra_key << "=\"" << *extra_value << '"';
  }
  out << '}';
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      bins_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  ISEX_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (std::size_t i = 0; i <= bounds_.size(); ++i) bins_[i].store(0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bin = static_cast<std::size_t>(it - bounds_.begin());
  bins_[bin].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, value);
}

void Histogram::observe_binned(std::span<const std::uint64_t> bins,
                               double sum) {
  ISEX_ASSERT(bins.size() == bounds_.size() + 1);
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i] == 0) continue;
    bins_[i].fetch_add(bins[i], std::memory_order_relaxed);
    count += bins[i];
  }
  if (count == 0) return;
  count_.fetch_add(count, std::memory_order_relaxed);
  detail::atomic_add(sum_, sum);
}

std::vector<std::uint64_t> Histogram::bin_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[i] = bins_[i].load(std::memory_order_relaxed);
  return counts;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    bins_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::string render_series(std::string_view name, const Labels& labels) {
  std::string out(name);
  if (labels.empty()) return out;
  const Labels sorted = sorted_labels(labels);
  out += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += sorted[i].first;
    out += "=\"";
    out += sorted[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    std::string_view name, const Labels& labels, Kind kind,
    std::vector<double>* bounds) {
  const Labels sorted = sorted_labels(labels);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->labels == sorted) {
      ISEX_ASSERT(entry->kind == kind);  // one kind per metric name
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = sorted;
  entry->kind = kind;
  // Payload creation must stay inside the lock: pool workers race on the
  // first use of a series (e.g. AntWalk's ctor inside parallel explores).
  switch (kind) {
    case Kind::kCounter: entry->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry->gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>(std::move(*bounds));
      break;
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  return *find_or_create(name, labels, Kind::kHistogram, &bounds).histogram;
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::vector<const Entry*> sorted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted.reserve(entries_.size());
    for (const auto& entry : entries_) sorted.push_back(entry.get());
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry* a, const Entry* b) {
                     if (a->name != b->name) return a->name < b->name;
                     return a->labels < b->labels;
                   });

  std::string last_name;
  for (const Entry* entry : sorted) {
    if (entry->name != last_name) {
      last_name = entry->name;
      out << "# TYPE " << entry->name << ' '
          << (entry->kind == Kind::kCounter
                  ? "counter"
                  : entry->kind == Kind::kGauge ? "gauge" : "histogram")
          << '\n';
    }
    switch (entry->kind) {
      case Kind::kCounter:
        out << entry->name;
        write_label_set(out, entry->labels);
        out << ' ';
        write_number(out, entry->counter->value());
        out << '\n';
        break;
      case Kind::kGauge:
        out << entry->name;
        write_label_set(out, entry->labels);
        out << ' ';
        write_number(out, entry->gauge->value());
        out << '\n';
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        const std::vector<std::uint64_t> bins = h.bin_counts();
        const std::string le = "le";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < bins.size(); ++i) {
          cumulative += bins[i];
          const std::string bound =
              i < h.bounds().size() ? format_bound(h.bounds()[i]) : "+Inf";
          out << entry->name << "_bucket";
          write_label_set(out, entry->labels, &le, &bound);
          out << ' ' << cumulative << '\n';
        }
        out << entry->name << "_sum";
        write_label_set(out, entry->labels);
        out << ' ';
        write_number(out, h.sum());
        out << '\n';
        out << entry->name << "_count";
        write_label_set(out, entry->labels);
        out << ' ' << h.count() << '\n';
        break;
      }
    }
  }
}

std::vector<std::pair<Labels, double>> MetricsRegistry::counter_family(
    std::string_view name) const {
  std::vector<std::pair<Labels, double>> series;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : entries_) {
      if (entry->name == name && entry->kind == Kind::kCounter)
        series.emplace_back(entry->labels, entry->counter->value());
    }
  }
  std::sort(series.begin(), series.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return series;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->counter) entry->counter->reset();
    if (entry->gauge) entry->gauge->reset();
    if (entry->histogram) entry->histogram->reset();
  }
}

std::size_t MetricsRegistry::num_series() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked: a pool worker records its last task's metrics
  // after the task's completion latch fires, and the default pool only
  // joins its workers during late static destruction — the registry (and
  // every series interned in it) must outlive that tail.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace isex::trace
