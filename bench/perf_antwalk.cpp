// Ant-walk hot-path microbench: walks/sec and heap allocations per walk of
// the optimized AntWalk (flat per-round G+ layout, per-walk weight table,
// incremental Ready-Matrix with prefix sums, WalkScratch reuse) against the
// reference walk of tests/walk_reference.hpp (per-step Ready-Matrix rebuild,
// per-entry pheromone weight calls, fresh buffers every walk).  Both consume
// identical RNG streams, so the bench double-checks that the optimized walk
// is byte-identical to the reference on every benchmark DFG.
//
// Results land in BENCH_antwalk.json.  Flags:
//   --quick       fewer walks (CI smoke)
//   --walks N     walks per benchmark DFG (default 2000, quick 300)
//   --floor W     exit 1 if optimized walks/sec < 0.7 × W (perf regression
//                 gate; the 30% slack absorbs runner noise)
// Exit is also nonzero when the optimized walk diverges from the reference
// or performs any heap allocation after warm-up.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "core/ant_walk.hpp"
#include "core/pheromone.hpp"
#include "hwlib/hw_library.hpp"
#include "sched/priority.hpp"
#include "util/rng.hpp"
#include "walk_reference.hpp"

// ---------------------------------------------------------------------------
// Counting allocation hook: every global operator new bumps one counter, so
// "allocations per walk" is an exact count, not an estimate.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// GCC pairs the standard operator new it inlines into a caller with the
// free() of the replacement delete below and reports a mismatch; both
// replacements use malloc/free, so the pairing is sound.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size != 0 ? size : 1) == 0)
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace {

using namespace isex;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

template <typename Result>
std::uint64_t digest(const Result& w, std::uint64_t h) {
  for (std::size_t v = 0; v < w.chosen.size(); ++v) {
    h = mix64(h, static_cast<std::uint64_t>(w.chosen[v]));
    h = mix64(h, static_cast<std::uint64_t>(w.slot[v]));
    h = mix64(h, static_cast<std::uint64_t>(w.order[v]));
    h = mix64(h, static_cast<std::uint64_t>(w.group_id[v]));
  }
  return mix64(h, static_cast<std::uint64_t>(w.tet));
}

struct DfgCase {
  std::string name;
  dfg::Graph graph;
};

struct ModeStats {
  double best_seconds = 0.0;  // fastest of the timing reps
  std::uint64_t walks = 0;    // walks per rep
  std::uint64_t timed_walks = 0;
  std::uint64_t allocs = 0;  // across all timed reps
  std::uint64_t hash = 0;

  double walks_per_sec() const {
    return best_seconds > 0.0 ? static_cast<double>(walks) / best_seconds
                              : 0.0;
  }
  double allocs_per_walk() const {
    return timed_walks > 0 ? static_cast<double>(allocs) /
                                 static_cast<double>(timed_walks)
                           : 0.0;
  }
};

struct CaseReport {
  std::string name;
  std::size_t nodes = 0;
  ModeStats reference;
  ModeStats optimized;
  bool identical = false;
};

std::vector<double> priority_scores(const dfg::Graph& g,
                                    const core::ExplorerParams& params) {
  std::vector<double> sp = sched::compute_priorities(g, params.sp_priority);
  double sp_max = 0.0;
  for (const double s : sp) sp_max = std::max(sp_max, s);
  if (sp_max > 0.0)
    for (double& s : sp) s = s / sp_max * params.merit_scale;
  return sp;
}

constexpr int kTimingReps = 3;

CaseReport run_case(const DfgCase& c, int walks, std::uint64_t seed) {
  CaseReport report;
  report.name = c.name;
  report.nodes = c.graph.num_nodes();

  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const hw::GPlus gplus(c.graph, lib);
  const core::ExplorerParams params;
  const core::PheromoneState pheromone(gplus, params);
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  const std::vector<double> sp = priority_scores(c.graph, params);

  // Both modes run kTimingReps reps of the same `walks`-walk RNG stream and
  // keep the fastest rep — best-of smooths scheduler/frequency noise that
  // otherwise dominates millisecond-scale measurements.

  // Reference: per-step rebuild, fresh buffers every walk.
  report.reference.walks = static_cast<std::uint64_t>(walks);
  report.reference.best_seconds = std::numeric_limits<double>::max();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    Rng rng(seed);
    const auto alloc0 = g_allocs.load(std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < walks; ++i) {
      const testing::RefResult w =
          testing::reference_walk(gplus, machine, params, pheromone, sp, rng);
      h = digest(w, h);
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    report.reference.best_seconds =
        std::min(report.reference.best_seconds, secs);
    report.reference.timed_walks += static_cast<std::uint64_t>(walks);
    report.reference.allocs +=
        g_allocs.load(std::memory_order_relaxed) - alloc0;
    report.reference.hash = h;
  }

  // Optimized: AntWalk with one reused scratch.  The warm-up rep replays the
  // exact RNG stream the timed reps use (outside the timed/counted window),
  // so every scratch buffer reaches the high-water size of the hardest walk
  // in the sequence before counting starts — the timed reps must then be
  // allocation-free, not just amortized-cheap.
  {
    const core::AntWalk walker(gplus, machine, params);
    core::WalkScratch scratch;
    {
      Rng warm(seed);
      for (int i = 0; i < walks; ++i) walker.run(pheromone, sp, warm, scratch);
    }
    report.optimized.walks = static_cast<std::uint64_t>(walks);
    report.optimized.best_seconds = std::numeric_limits<double>::max();
    for (int rep = 0; rep < kTimingReps; ++rep) {
      Rng rng(seed);
      const auto alloc0 = g_allocs.load(std::memory_order_relaxed);
      const auto start = std::chrono::steady_clock::now();
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (int i = 0; i < walks; ++i) {
        const core::WalkResult& w = walker.run(pheromone, sp, rng, scratch);
        h = digest(w, h);
      }
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      report.optimized.best_seconds =
          std::min(report.optimized.best_seconds, secs);
      report.optimized.timed_walks += static_cast<std::uint64_t>(walks);
      report.optimized.allocs +=
          g_allocs.load(std::memory_order_relaxed) - alloc0;
      report.optimized.hash = h;
    }
  }

  report.identical = report.reference.hash == report.optimized.hash;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  int walks = 2000;
  bool quick = false;
  double floor_walks_per_sec = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--walks") == 0 && i + 1 < argc) {
      walks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--floor") == 0 && i + 1 < argc) {
      floor_walks_per_sec = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: perf_antwalk [--quick] [--walks N] [--floor W]\n");
      return 2;
    }
  }
  if (quick) walks = std::min(walks, 300);

  // The 7-benchmark suite's hottest O3 blocks — the DFGs every Fig 5.2
  // sweep hammers.
  std::vector<DfgCase> cases;
  for (const auto bm : bench_suite::all_benchmarks()) {
    flow::ProfiledProgram prog =
        bench_suite::make_program(bm, bench_suite::OptLevel::kO3);
    DfgCase c;
    c.name = std::string(bench_suite::name(bm));
    c.graph = std::move(prog.blocks.front().graph);
    cases.push_back(std::move(c));
  }

  std::printf("perf_antwalk: %d walks per DFG%s\n\n", walks,
              quick ? " (--quick)" : "");
  std::vector<CaseReport> reports;
  ModeStats total_ref;
  ModeStats total_opt;
  bool all_identical = true;
  for (const DfgCase& c : cases) {
    const CaseReport r = run_case(c, walks, /*seed=*/1234567);
    std::printf(
        "%-9s %3zu nodes  ref %9.0f walks/s (%5.1f allocs/walk)  "
        "opt %9.0f walks/s (%4.2f allocs/walk)  speedup %4.2fx  %s\n",
        r.name.c_str(), r.nodes, r.reference.walks_per_sec(),
        r.reference.allocs_per_walk(), r.optimized.walks_per_sec(),
        r.optimized.allocs_per_walk(),
        r.optimized.walks_per_sec() / r.reference.walks_per_sec(),
        r.identical ? "identical" : "DIVERGED");
    total_ref.best_seconds += r.reference.best_seconds;
    total_ref.walks += r.reference.walks;
    total_ref.timed_walks += r.reference.timed_walks;
    total_ref.allocs += r.reference.allocs;
    total_opt.best_seconds += r.optimized.best_seconds;
    total_opt.walks += r.optimized.walks;
    total_opt.timed_walks += r.optimized.timed_walks;
    total_opt.allocs += r.optimized.allocs;
    all_identical = all_identical && r.identical;
    reports.push_back(r);
  }

  const double speedup =
      total_opt.walks_per_sec() / total_ref.walks_per_sec();
  std::printf(
      "\ntotal: ref %.0f walks/s, opt %.0f walks/s, speedup %.2fx, "
      "opt allocs/walk %.3f, identical %s\n",
      total_ref.walks_per_sec(), total_opt.walks_per_sec(), speedup,
      total_opt.allocs_per_walk(), all_identical ? "yes" : "NO — BUG");

  FILE* json = std::fopen("BENCH_antwalk.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_antwalk.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"antwalk_hotpath\",\n");
  std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(json, "  \"walks_per_dfg\": %d,\n", walks);
  std::fprintf(json, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CaseReport& r = reports[i];
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"nodes\": %zu, "
        "\"reference_walks_per_sec\": %.1f, \"reference_allocs_per_walk\": "
        "%.3f, \"optimized_walks_per_sec\": %.1f, "
        "\"optimized_allocs_per_walk\": %.3f, \"speedup\": %.3f, "
        "\"identical\": %s}%s\n",
        r.name.c_str(), r.nodes, r.reference.walks_per_sec(),
        r.reference.allocs_per_walk(), r.optimized.walks_per_sec(),
        r.optimized.allocs_per_walk(),
        r.optimized.walks_per_sec() / r.reference.walks_per_sec(),
        r.identical ? "true" : "false", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"total\": {\"reference_walks_per_sec\": %.1f, "
               "\"optimized_walks_per_sec\": %.1f, \"speedup\": %.3f, "
               "\"optimized_allocs_per_walk\": %.3f, \"identical\": %s},\n",
               total_ref.walks_per_sec(), total_opt.walks_per_sec(), speedup,
               total_opt.allocs_per_walk(), all_identical ? "true" : "false");
  std::fprintf(json, "  \"floor_walks_per_sec\": %.1f\n",
               floor_walks_per_sec);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_antwalk.json\n");

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: optimized walk diverged from reference\n");
    return 1;
  }
  if (total_opt.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu heap allocations during warmed-up walks\n",
                 static_cast<unsigned long long>(total_opt.allocs));
    return 1;
  }
  if (floor_walks_per_sec > 0.0 &&
      total_opt.walks_per_sec() < 0.7 * floor_walks_per_sec) {
    std::fprintf(stderr,
                 "FAIL: %.0f walks/s is >30%% below the floor of %.0f\n",
                 total_opt.walks_per_sec(), floor_walks_per_sec);
    return 1;
  }
  return 0;
}
