// Self-test of the benchmark's own arithmetic: the percentile reporting
// rule and the span self-time reduction.
#pragma once

namespace perfbench {

/// Returns false (after printing what failed to stderr) on any mismatch.
bool run_self_test();

}  // namespace perfbench
