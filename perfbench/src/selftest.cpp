#include "selftest.hpp"

#include <cstdio>
#include <vector>

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

bool expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "perfbench self-test failed: %s\n", what);
  return ok;
}

bool percentile_rule() {
  bool ok = true;
  // p90 of 100 samples has rank 90, so exactly 10 samples lie beyond it.
  ok &= expect(percentile_reportable(100, 0.9), "p90 reportable at n=100");
  ok &= expect(!percentile_reportable(99, 0.9), "p90 not reportable at n=99");
  ok &= expect(percentile_reportable(20, 0.5), "p50 reportable at n=20");
  ok &= expect(!percentile_reportable(19, 0.5), "p50 not reportable at n=19");
  ok &= expect(!percentile_reportable(0, 0.5), "nothing reportable at n=0");

  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  ok &= expect(percentile(samples, 0.9) == 90.0, "nearest-rank p90 of 1..100");
  ok &= expect(percentile(samples, 0.5) == 50.0, "nearest-rank p50 of 1..100");
  ok &= expect(percentile(samples, 1.0) == 100.0, "p100 is the maximum");
  ok &= expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  ok &= expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  return ok;
}

bool self_time_arithmetic() {
  bool ok = true;
  // root [0, 100) with children [10, 40) and [30, 60) (overlapping, as on
  // two pool workers) and [90, 120) (clipped to the root at 100); the
  // grandchild [15, 25) is covered by its own parent, not the root.
  std::vector<Span> spans(5);
  spans[0] = Span{"root", 0, 100, 1, 0, 7};
  spans[1] = Span{"a", 10, 40, 2, 1, 7};
  spans[2] = Span{"b", 30, 60, 3, 1, 7};
  spans[3] = Span{"c", 90, 120, 4, 1, 7};
  spans[4] = Span{"a.child", 15, 25, 5, 2, 7};
  const std::vector<std::uint64_t> self = self_times(spans);
  // Covered part of root: [10, 60) ∪ [90, 100) = 60.
  ok &= expect(self[0] == 40, "root self time is 100 - 60");
  ok &= expect(self[1] == 20, "a self time is 30 - 10");
  ok &= expect(self[2] == 30, "b has no children");
  ok &= expect(self[3] == 30, "c keeps its full duration");
  ok &= expect(self[4] == 10, "leaf self time is its duration");

  const auto totals = totals_by_name(spans);
  ok &= expect(totals.at("root").total_ns == 100, "inclusive total");
  ok &= expect(totals.at("root").self_ns == 40, "self total");

  // A child whose parent was never recorded counts as a root.
  const std::vector<Span> orphan = {Span{"x", 5, 9, 3, 42, 0}};
  ok &= expect(self_times(orphan)[0] == 4, "orphan keeps its duration");
  return ok;
}

}  // namespace

bool run_self_test() {
  const bool rule = percentile_rule();
  const bool spans = self_time_arithmetic();
  return rule && spans;
}

}  // namespace perfbench
