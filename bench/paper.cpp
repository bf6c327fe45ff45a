// Prints every table of the paper's evaluation: Table 5.1.1, Fig 1.3.1,
// Figs 5.2.1-5.2.3 and the headline numbers, then two ablations and the
// extended kernel suite.  Each table is followed by the shapes it shows;
// tests/test_paper.cpp asserts each of them on the tables at the paper's 5
// repeats (ctest -L paper).  The pool's runtime stats close the run.
//
//   build/bench/paper
//
// ISEX_BENCH_REPEATS=N explores each block N times instead of 5 (§5.1), for
// a faster, lower-fidelity pass whose tables the shapes may not describe.
// ISEX_METRICS_OUT=file.prom and ISEX_TRACE_OUT=file.json write a
// Prometheus snapshot and a Chrome trace of the run (docs/OBSERVABILITY.md).
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>

#include "paper_figures.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace {

using namespace isex;

void shapes(const char* test, std::initializer_list<const char*> lines) {
  std::cout << "\nShapes (checked at 5 repeats by PaperShapes." << test
            << "):\n";
  for (const char* line : lines) std::cout << "  - " << line << '\n';
  std::cout << '\n';
}

void write_file(const char* path, const auto& write) {
  std::ofstream file(path);
  if (file)
    write(file);
  else
    std::cerr << "cannot write " << path << "\n";
}

/// The pool's width and jobs, every eval cache's probes (the registry's
/// isex_schedule_cache_*_total counters) and each stage's seconds.
void print_runtime_stats() {
  const runtime::PoolStats pool = runtime::ThreadPool::default_pool().stats();
  std::cout << "runtime: " << pool.threads << " thread(s), " << pool.jobs_run
            << " job(s)\n";
  trace::MetricsRegistry& registry = trace::MetricsRegistry::global();
  const auto total = [&](const char* name) {
    return static_cast<std::uint64_t>(registry.counter(name).value());
  };
  runtime::CacheStats cache;
  cache.hits = total("isex_schedule_cache_hits_total");
  cache.misses = total("isex_schedule_cache_misses_total");
  cache.evictions = total("isex_schedule_cache_evictions_total");
  std::cout << "schedule cache: " << cache.hits << " hit(s) / "
            << cache.hits + cache.misses << " probe(s)";
  if (cache.hits + cache.misses > 0) {
    std::cout << " (" << static_cast<int>(cache.hit_rate() * 100.0 + 0.5)
              << "% hit rate)";
  }
  std::cout << ", " << cache.evictions << " eviction(s)\n";
  for (const auto& [labels, seconds] :
       registry.counter_family("isex_stage_seconds_total"))
    std::cout << "stage " << labels.front().second << ": " << seconds
              << " s\n";
  if (const char* path = std::getenv("ISEX_METRICS_OUT")) {
    write_file(path, [](std::ostream& os) {
      trace::MetricsRegistry::global().write_prometheus(os);
    });
  }
  if (const char* path = std::getenv("ISEX_TRACE_OUT")) {
    write_file(path, [](std::ostream& os) {
      trace::Tracer::global().write_chrome_trace(os);
    });
  }
}

}  // namespace

int main() {
  if (std::getenv("ISEX_TRACE_OUT") != nullptr)
    trace::Tracer::global().set_enabled(true);
  const int repeats = paper::bench_repeats();
  const std::string best_of = "best of " + std::to_string(repeats);

  std::cout << "Table 5.1.1: Hardware implementation option settings\n"
            << "(0.13 um CMOS @ 100 MHz; software option = 1 cycle, "
               "0 um^2)\n\n";
  paper::print_table_5_1_1(paper::table_5_1_1(), std::cout);
  std::cout << "\n\n";

  std::cout << "Figure 1.3.1: ISE exploring results for different "
               "architectures (12-op example DFG)\n\n";
  paper::print_fig_1_3_1(paper::fig_1_3_1(), std::cout);
  shapes("Fig131Motivation",
         {"widening issue alone helps (2-issue beats single-issue without "
          "ISEs), but the dependence chain bounds it: an ISE cuts deeper",
          "case 2 (MI on 2-issue) matches case 1's cycles with less area"});

  std::cout << "Figure 5.2.1: execution time reduction under different "
               "silicon area constraints\n"
            << "(avg over 7 benchmarks, " << best_of
            << " explorations per block)\n\n";
  paper::print_fig_5_2_1(paper::fig_5_2_1(repeats), std::cout);
  shapes("Fig521AreaSweep",
         {"every row is non-decreasing in budget",
          "at 5k um^2 MI beats SI in all 12 (machine, flavor) pairs; at 10k "
          "MI >= SI in 11 of 12",
          "from 20k up, where the budget rarely binds, MI >= SI in only 4-6 "
          "of 12 pairs per budget, and SI leads by up to 3.25 points",
          "at 40k, O3 leads O0 on both 2-issue machines by more than on "
          "either 3-issue machine, and O0 leads on both 4-issue machines"});

  std::cout << "Figure 5.2.2: execution time reduction for different "
               "number of ISEs\n"
            << "(avg over 7 benchmarks, " << best_of
            << " explorations per block)\n\n";
  paper::print_fig_5_2_2(paper::fig_5_2_2(repeats), std::cout);
  shapes("Fig522IseCountSweep",
         {"every row is equal at 8, 16 and 32 ISEs",
          "every MI row is non-decreasing; SI rows need not be, as SI scored "
          "its ISEs on a single-issue schedule (SI (4/2, 2IS) O0: 41.12% at "
          "4 ISEs, 41.10% at 8)",
          "the first ISE gives at least 41% of its row's reduction at 32 "
          "ISEs",
          "MI and SI trade places: SI leads by up to 6.78 points (2 ISEs, "
          "(10/5, 4IS) O3)"});

  const auto fig523_machine = paper::fig_5_2_3_machine();
  std::cout << "Figure 5.2.3: silicon area cost vs execution time reduction\n"
            << "(machine " << fig523_machine.label()
            << ", O3, avg over 7 benchmarks, " << best_of
            << " explorations)\n\n";
  paper::print_fig_5_2_3(paper::fig_5_2_3(repeats), std::cout);
  shapes("Fig523AreaVsReduction",
         {"the first ISE gives over 60% of the reduction both explorers "
          "reach from 8 ISEs on",
          "from 8 ISEs on both reduce 54.65%, MI with less area than SI",
          "below that MI does not lead everywhere: at 2 ISEs SI reduces "
          "more, and at 4 ISEs SI uses less area"});

  std::cout << "Headline numbers (" << best_of
            << " explorations per block, O3, avg across benchmarks per "
               "machine config)\n\n";
  paper::print_headline(paper::headline(repeats), std::cout);
  shapes("Headline",
         {"MI beats SI at equal area on all six machines",
          "one ISE gives at least 24% on every machine; its 31.21% average "
          "is about twice the paper's 14.79%, as the modelled hot blocks "
          "carry no prologue, spill or branch dilution"});

  std::cout << "Ablation: schedule-awareness of the explorer (deployment "
               "machine "
            << fig523_machine.label() << ", 40000 um^2 budget, O3)\n\n";
  paper::print_ablation_locality(paper::ablation_locality(repeats), std::cout);
  shapes("AblationLocality",
         {"per benchmark, MI reduces at least as much as both variants, with "
          "no more area"});

  std::cout << "Ablation: scheduling-priority functions (machine "
            << fig523_machine.label() << ", O3, 40000 um^2 budget)\n\n";
  paper::print_ablation_priority(paper::ablation_priority(repeats), std::cout);
  shapes("AblationPriority",
         {"mobility reduces at least as much as child count on every "
          "benchmark",
          "the priorities differ only on CRC32, where they are 8.89 points "
          "apart"});

  std::cout << "Extended kernel suite (machine " << fig523_machine.label()
            << ", 40000 um^2, " << best_of << ")\n\n";
  paper::print_extended_suite(paper::extended_suite(repeats), std::cout);
  shapes("ExtendedSuite",
         {"in all six rows MI matches SI's reduction with less area",
          "at each flavor the shift/xor networks (AES, SHA-256) reduce more "
          "than Sobel"});

  print_runtime_stats();
  return 0;
}
