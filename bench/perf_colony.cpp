// Multi-colony scaling bench: wall clock of a Fig 5.2.1-style exploration
// sweep (7 benchmarks × O3 × MI on the (6/3, 2IS) machine) at colony counts
// {1, 2, 4, 8}, each measured at jobs=1 and jobs=8.  Results — including the
// per-colony-count thread-identity check — land in BENCH_colony.json.
//
// Unlike perf_runtime, explorations here run *top level* on the calling
// thread (no block × repeat fan-out): nested parallel_for inlines serially,
// so the colony epoch fan-out inside MultiIssueExplorer::explore is the only
// pool user and its scaling is what gets measured.
//
// Gates (exit status 1 on failure):
//   * identity — for every colony count the exploration digest at jobs=1
//     must equal the digest at jobs=8.  Always enforced: colonies are a
//     search parameter, never a function of the thread count.
//   * speedup — colonies=8/jobs=8 must beat the serial baseline
//     (colonies=1/jobs=1) by ISEX_BENCH_COLONY_FLOOR (default 2.0x).
//     Enforced only when the host grants >= 4 cores; on smaller hosts the
//     floor result is stamped into the JSON but does not gate.
//
// `--quick` drops to one timing repeat for CI smoke runs; the identity
// check runs at full strength either way.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "core/mi_explorer.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace isex;

int timing_repeats(bool quick) {
  if (const char* env = std::getenv("ISEX_BENCH_TIMING_REPEATS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return quick ? 1 : 3;
}

double speedup_floor() {
  if (const char* env = std::getenv("ISEX_BENCH_COLONY_FLOOR")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 2.0;
}

/// FNV-1a over every observable field of an ExplorationResult (mirrors the
/// golden-hash regression tests): any cross-thread-count drift flips it.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  void mix_int(long long v) { mix(static_cast<std::uint64_t>(v)); }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t hash_exploration(const core::ExplorationResult& r) {
  Fnv1a h;
  h.mix_int(r.base_cycles);
  h.mix_int(r.final_cycles);
  h.mix_int(r.rounds);
  h.mix_int(r.total_iterations);
  h.mix_int(static_cast<long long>(r.ises.size()));
  for (const core::ExploredIse& ise : r.ises) {
    h.mix_int(ise.in_count);
    h.mix_int(ise.out_count);
    h.mix_int(ise.gain_cycles);
    h.mix_int(ise.eval.latency_cycles);
    h.mix_double(ise.eval.area);
    h.mix_double(ise.eval.depth_ns);
    ise.original_nodes.for_each([&](dfg::NodeId m) { h.mix_int(m); });
  }
  return h.hash;
}

struct ColonyRun {
  int colonies = 1;
  int jobs = 1;
  std::vector<double> seconds_each;
  std::uint64_t digest = 0;  ///< combined over the sweep's explorations

  double seconds_min() const {
    return *std::min_element(seconds_each.begin(), seconds_each.end());
  }
  double seconds_median() const {
    std::vector<double> s = seconds_each;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
  }
};

/// One sweep: explore the hottest block of every benchmark serially on this
/// thread (so the colony fan-out is top level), own cold cache, fresh pool.
void run_sweep_once(ColonyRun& run) {
  runtime::ThreadPool::set_default_jobs(run.jobs);
  runtime::EvalCache cache;

  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const hw::HwLibrary library = hw::HwLibrary::paper_default();
  core::ExplorerParams params;
  params.colonies = run.colonies;
  params.eval_cache = &cache;
  const core::MultiIssueExplorer explorer(machine, format, library, params);

  Fnv1a combined;
  const auto start = std::chrono::steady_clock::now();
  for (const bench_suite::Benchmark bm : bench_suite::all_benchmarks()) {
    const flow::ProfiledProgram prog =
        bench_suite::make_program(bm, bench_suite::OptLevel::kO3);
    Rng rng(17);
    const core::ExplorationResult r =
        explorer.explore(prog.blocks.front().graph, rng);
    combined.mix(hash_exploration(r));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  run.seconds_each.push_back(std::chrono::duration<double>(elapsed).count());
  run.digest = combined.hash;
}

ColonyRun run_sweep(int colonies, int jobs, int repeats) {
  ColonyRun run;
  run.colonies = colonies;
  run.jobs = jobs;
  for (int r = 0; r < repeats; ++r) run_sweep_once(run);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const unsigned hardware = std::thread::hardware_concurrency();
  const int repeats = timing_repeats(quick);
  const double floor = speedup_floor();
  const bool enforce_floor = hardware >= 4;
  std::printf("perf_colony: Fig 5.2.1-style sweep (7 benchmarks, O3, MI), "
              "colonies x jobs grid%s\n", quick ? " [quick]" : "");
  std::printf("hardware_concurrency: %u, timing_repeats: %d, "
              "speedup floor: %.2fx (%s)\n\n",
              hardware, repeats, floor,
              enforce_floor ? "enforced" : "not enforced, < 4 cores");

  const std::vector<int> colony_counts = {1, 2, 4, 8};
  std::vector<ColonyRun> runs;
  for (const int colonies : colony_counts) {
    runs.push_back(run_sweep(colonies, /*jobs=*/1, repeats));
    runs.push_back(run_sweep(colonies, /*jobs=*/8, repeats));
  }
  runtime::ThreadPool::set_default_jobs(0);  // restore auto width

  // Identity gate: per colony count, jobs=1 and jobs=8 digests must match.
  bool identity_ok = true;
  for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
    if (runs[i].digest != runs[i + 1].digest) {
      identity_ok = false;
      std::fprintf(stderr,
                   "IDENTITY VIOLATION: colonies=%d digest differs between "
                   "jobs=1 and jobs=8\n", runs[i].colonies);
    }
  }

  // Headline: colonies=8 at jobs=8 vs the serial baseline (1 colony, 1 job).
  const ColonyRun& serial = runs.front();
  const ColonyRun& parallel = runs.back();
  const double headline = serial.seconds_min() / parallel.seconds_min();

  for (const ColonyRun& run : runs) {
    std::printf("colonies=%d jobs=%d  min %7.3f s  median %7.3f s  "
                "speedup %.2fx  digest %016llx\n",
                run.colonies, run.jobs, run.seconds_min(),
                run.seconds_median(), serial.seconds_min() / run.seconds_min(),
                static_cast<unsigned long long>(run.digest));
  }
  std::printf("\nidentity (jobs=1 == jobs=8 per colony count): %s\n",
              identity_ok ? "yes" : "NO — BUG");
  std::printf("headline: colonies=8/jobs=8 vs serial = %.2fx (floor %.2fx, "
              "%s)\n", headline, floor,
              enforce_floor ? "enforced" : "informational");

  FILE* json = std::fopen("BENCH_colony.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_colony.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"colony_scaling\",\n");
  std::fprintf(json, "  \"sweep\": \"fig_5_2_1_style_7bench_O3_MI_6_3_2IS\",\n");
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n", hardware);
  std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(json, "  \"timing_repeats\": %d,\n", repeats);
  std::fprintf(json, "  \"identity_ok\": %s,\n",
               identity_ok ? "true" : "false");
  std::fprintf(json, "  \"speedup_floor\": %.2f,\n", floor);
  std::fprintf(json, "  \"floor_enforced\": %s,\n",
               enforce_floor ? "true" : "false");
  std::fprintf(json, "  \"headline_speedup\": %.3f,\n", headline);
  std::fprintf(json, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ColonyRun& run = runs[i];
    std::fprintf(json,
                 "    {\"colonies\": %d, \"jobs\": %d, \"seconds_each\": [",
                 run.colonies, run.jobs);
    for (std::size_t r = 0; r < run.seconds_each.size(); ++r)
      std::fprintf(json, "%s%.4f", r > 0 ? ", " : "", run.seconds_each[r]);
    std::fprintf(json,
                 "], \"seconds_min\": %.4f, \"seconds_median\": %.4f, "
                 "\"speedup_vs_serial\": %.3f, \"digest\": \"%016llx\"}%s\n",
                 run.seconds_min(), run.seconds_median(),
                 serial.seconds_min() / run.seconds_min(),
                 static_cast<unsigned long long>(run.digest),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_colony.json\n");

  if (!identity_ok) return 1;
  if (enforce_floor && headline < floor) {
    std::fprintf(stderr, "SPEEDUP GATE FAILED: %.2fx < %.2fx floor\n",
                 headline, floor);
    return 1;
  }
  return 0;
}
