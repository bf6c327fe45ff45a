// Counting global allocator.  A binary that compiles counting_allocator.cpp
// replaces every global operator new and delete: each new bumps one relaxed
// counter, so "allocations per iteration" is an exact count, not an
// estimate.  test_allocations, perf_antwalk and perf_candidates read it.
#pragma once

#include <cstdint>

namespace isex::testing {

/// Global operator new calls (every form) since the process started.
std::uint64_t allocation_count();

}  // namespace isex::testing
