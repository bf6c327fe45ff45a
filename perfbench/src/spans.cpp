#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::uint64_t SpanLog::raw_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SpanLog::now_ns() const { return raw_now_ns() - epoch_ns_; }

std::uint64_t SpanLog::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<std::uint64_t> self = self_times(all);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"id\":%llu,\"parent\":%llu,\"job\":%llu,\"self_ns\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.job),
                 static_cast<unsigned long long>(self[i]));
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent,
                       std::uint64_t job)
    : log_(log) {
  span_.name = name;
  span_.id = log.next_id();
  span_.parent = parent;
  span_.job = job;
  span_.start_ns = log.now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = log_.now_ns();
  log_.record(span_);
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Children's intervals, clipped to their parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> covered(
      spans.size());
  for (const Span& child : spans) {
    const auto it = index.find(child.parent);
    if (child.parent == 0 || it == index.end()) continue;
    const Span& parent = spans[it->second];
    const std::uint64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::uint64_t hi = std::min(child.end_ns, parent.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t union_ns = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

}  // namespace perfbench
