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
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "core/ant_walk.hpp"
#include "core/pheromone.hpp"
#include "counting_allocator.hpp"
#include "gate_report.hpp"
#include "golden_hash.hpp"
#include "hwlib/hw_library.hpp"
#include "sched/priority.hpp"
#include "util/rng.hpp"
#include "walk_reference.hpp"

namespace {

using namespace isex;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Mixes what both walks must agree on into the mode's running digest.
template <typename Result>
void digest(const Result& w, testing::Fnv1a& h) {
  for (std::size_t v = 0; v < w.chosen.size(); ++v) {
    h.mix_int(w.chosen[v]);
    h.mix_int(w.slot[v]);
    h.mix_int(w.order[v]);
    h.mix_int(w.group_id[v]);
  }
  h.mix_int(w.tet);
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
    const auto alloc0 = testing::allocation_count();
    const auto start = std::chrono::steady_clock::now();
    testing::Fnv1a h;
    for (int i = 0; i < walks; ++i) {
      const testing::RefResult w =
          testing::reference_walk(gplus, machine, params, pheromone, sp, rng);
      digest(w, h);
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    report.reference.best_seconds =
        std::min(report.reference.best_seconds, secs);
    report.reference.timed_walks += static_cast<std::uint64_t>(walks);
    report.reference.allocs +=
        testing::allocation_count() - alloc0;
    report.reference.hash = h.value();
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
      const auto alloc0 = testing::allocation_count();
      const auto start = std::chrono::steady_clock::now();
      testing::Fnv1a h;
      for (int i = 0; i < walks; ++i) {
        const core::WalkResult& w = walker.run(pheromone, sp, rng, scratch);
        digest(w, h);
      }
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      report.optimized.best_seconds =
          std::min(report.optimized.best_seconds, secs);
      report.optimized.timed_walks += static_cast<std::uint64_t>(walks);
      report.optimized.allocs +=
          testing::allocation_count() - alloc0;
      report.optimized.hash = h.value();
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

  gate::Report report("antwalk");
  report.params()
      .boolean("quick", quick)
      .integer("walks_per_dfg", walks)
      .fixed("floor_walks_per_sec", floor_walks_per_sec, 1);
  const auto add_modes = [](gate::Fields& row, const ModeStats& ref,
                            const ModeStats& opt, bool identical) {
    row.fixed("reference_walks_per_sec", ref.walks_per_sec(), 1)
        .fixed("reference_allocs_per_walk", ref.allocs_per_walk(), 3)
        .fixed("optimized_walks_per_sec", opt.walks_per_sec(), 1)
        .fixed("optimized_allocs_per_walk", opt.allocs_per_walk(), 3)
        .fixed("speedup", opt.walks_per_sec() / ref.walks_per_sec(), 3)
        .boolean("identical", identical);
  };
  for (const CaseReport& r : reports)
    add_modes(report.add_row().string("name", r.name).integer("nodes", r.nodes),
              r.reference, r.optimized, r.identical);
  add_modes(report.add_row().string("name", "total"), total_ref, total_opt,
            all_identical);

  report.identity("optimized walk equals the reference walk", all_identical);
  report.ceiling("heap allocations in warmed-up walks",
                 static_cast<double>(total_opt.allocs), 0.0);
  // The 30% slack absorbs runner noise.
  report.floor("optimized walks/s", total_opt.walks_per_sec(),
               0.7 * floor_walks_per_sec, floor_walks_per_sec > 0.0);
  return report.finish();
}
