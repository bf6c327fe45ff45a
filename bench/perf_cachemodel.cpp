// Memory-hierarchy cost-model bench: the 7-benchmark O3 suite explored
// through run_design_flow with the two-level cache model on and off
// (docs/MEMORY.md).  Results land in BENCH_cachemodel.json.
//
// Gates (exit status 1 on failure):
//   * null identity — the null model (FlowConfig::cache unset) must produce
//     the same per-program exploration digests before and after any cache-
//     modeled run in the process: annotation happens on copies and leaves no
//     residue.  (The legacy digests themselves are pinned by the tier-1
//     golden-hash tests; this gate proves the plumbing is inert when off.)
//   * jobs identity — with the cache model on, jobs=1 and jobs=8 must be
//     bit-identical per program: annotation is a pure function of
//     (graph, config), never of scheduling order or thread count.
//   * effect — at least one program's exploration digest must differ
//     between the null model and the cache model: the simulated latencies
//     actually reach the merit function.
//   * overhead — the cache-modeled flow may cost at most
//     ISEX_BENCH_CACHEMODEL_OVERHEAD_CEILING (default 1.15x) of the null
//     flow at jobs=8, min over timing repeats.
//
// `--quick` drops to one timing repeat and 2 exploration repeats for CI
// smoke runs; every identity gate runs either way.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "flow/design_flow.hpp"
#include "harness_common.hpp"
#include "mem/cache_model.hpp"

namespace {

using namespace isex;

int timing_repeats(bool quick) {
  if (const char* env = std::getenv("ISEX_BENCH_TIMING_REPEATS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return quick ? 1 : 3;
}

double overhead_ceiling() {
  if (const char* env =
          std::getenv("ISEX_BENCH_CACHEMODEL_OVERHEAD_CEILING")) {
    const double v = std::atof(env);
    if (v > 1.0) return v;
  }
  return 1.15;
}

/// FNV-1a over every observable exploration field (mirrors the golden-hash
/// regression tests): any behavioural divergence flips it.
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

std::uint64_t hash_flow(const flow::FlowResult& result) {
  Fnv1a h;
  h.mix_int(static_cast<long long>(result.hot_blocks.size()));
  for (const std::size_t b : result.hot_blocks) h.mix(b);
  for (const core::ExplorationResult& r : result.explorations) {
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
  }
  h.mix_int(static_cast<long long>(result.replacement.base_time));
  h.mix_int(static_cast<long long>(result.replacement.final_time));
  return h.hash;
}

struct SuiteRun {
  std::vector<std::uint64_t> digests;
  mem::CacheStats cache_stats;
  double seconds = 0.0;
};

SuiteRun run_suite(const std::vector<flow::ProfiledProgram>& programs,
                   const hw::HwLibrary& library,
                   const flow::FlowConfig& config) {
  SuiteRun run;
  const auto start = std::chrono::steady_clock::now();
  for (const flow::ProfiledProgram& program : programs) {
    // Each flow memoizes through its own private cache, cold per program
    // like a CLI invocation.
    const flow::FlowResult result =
        flow::run_design_flow(program, library, config);
    run.digests.push_back(hash_flow(result));
    run.cache_stats.merge(result.cache_stats);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  run.seconds = std::chrono::duration<double>(elapsed).count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const int repeats = timing_repeats(quick);
  const double ceiling = overhead_ceiling();
  std::printf("perf_cachemodel: 7-benchmark O3 suite, cache model on vs off"
              "%s\n",
              quick ? " [quick]" : "");
  std::printf("timing_repeats: %d, overhead ceiling: %.2fx\n\n", repeats,
              ceiling);

  const hw::HwLibrary library = hw::HwLibrary::paper_default();
  std::vector<flow::ProfiledProgram> programs;
  for (const bench_suite::Benchmark bm : bench_suite::all_benchmarks())
    programs.push_back(
        bench_suite::make_program(bm, bench_suite::OptLevel::kO3));

  flow::FlowConfig null_config;
  null_config.machine = sched::MachineConfig::make(2, {6, 3});
  null_config.repeats = quick ? 2 : 5;
  null_config.seed = 17;
  null_config.jobs = 8;

  flow::FlowConfig cache_config = null_config;
  cache_config.cache =
      *mem::parse_cache_config("l1_size=1k,l1_ways=2,l1_line=16,"
                               "l2_size=16k,l2_ways=4,l2_line=32,"
                               "l2_hit=6,mem=40");

  // --- Baseline null-model digests (first cache-model-free pass).
  const SuiteRun null_before = run_suite(programs, library, null_config);

  // --- Cache-modeled runs: jobs=8 (timed) and jobs=1 (identity witness).
  SuiteRun cached;
  std::vector<double> cached_seconds;
  for (int r = 0; r < repeats; ++r) {
    SuiteRun run = run_suite(programs, library, cache_config);
    cached_seconds.push_back(run.seconds);
    if (r == 0) cached = std::move(run);
  }
  flow::FlowConfig serial = cache_config;
  serial.jobs = 1;
  const SuiteRun cached_serial = run_suite(programs, library, serial);

  // --- Null-model timing repeats, after the cache-modeled runs so the
  // second digest pass doubles as the no-residue check.
  SuiteRun null_after;
  std::vector<double> null_seconds;
  for (int r = 0; r < repeats; ++r) {
    SuiteRun run = run_suite(programs, library, null_config);
    null_seconds.push_back(run.seconds);
    if (r == 0) null_after = std::move(run);
  }

  // Gate 1: the null model is unchanged by cache-model code having run.
  bool null_identity = null_before.digests == null_after.digests;
  if (!null_identity)
    std::fprintf(stderr, "NULL-MODEL IDENTITY VIOLATION: digests drifted "
                         "after cache-modeled runs\n");

  // Gate 2: cache-modeled results are thread-count independent.
  bool jobs_identity = cached.digests == cached_serial.digests;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    if (cached.digests[p] != cached_serial.digests[p])
      std::fprintf(stderr,
                   "JOBS IDENTITY VIOLATION: program '%s' jobs=8 digest "
                   "%016llx != jobs=1 %016llx\n",
                   programs[p].name.c_str(),
                   static_cast<unsigned long long>(cached.digests[p]),
                   static_cast<unsigned long long>(cached_serial.digests[p]));
  }

  // Gate 3: the model has an effect on at least one program.
  int changed_programs = 0;
  for (std::size_t p = 0; p < programs.size(); ++p)
    if (cached.digests[p] != null_before.digests[p]) ++changed_programs;
  const bool effect_ok = changed_programs > 0;
  if (!effect_ok)
    std::fprintf(stderr, "EFFECT GATE FAILED: cache model changed no "
                         "program's exploration\n");

  // Gate 4: overhead ceiling (min over repeats on both sides).
  const double null_min =
      *std::min_element(null_seconds.begin(), null_seconds.end());
  const double cached_min =
      *std::min_element(cached_seconds.begin(), cached_seconds.end());
  const double overhead = null_min > 0.0 ? cached_min / null_min : 1.0;
  const bool overhead_ok = overhead <= ceiling;

  const bool identity_ok = null_identity && jobs_identity;
  std::printf("null model    min %7.3f s\n", null_min);
  std::printf("cache model   min %7.3f s\n", cached_min);
  std::printf("overhead: %.3fx (ceiling %.2fx)\n", overhead, ceiling);
  std::printf("identity: null %s, jobs %s; %d/%zu programs changed by the "
              "model\n",
              null_identity ? "yes" : "NO — BUG",
              jobs_identity ? "yes" : "NO — BUG", changed_programs,
              programs.size());
  std::printf("cache telemetry: %llu accesses, %.1f%% L1 hit rate, "
              "%llu annotated nodes\n",
              static_cast<unsigned long long>(cached.cache_stats.accesses),
              100.0 * cached.cache_stats.l1_hit_rate(),
              static_cast<unsigned long long>(
                  cached.cache_stats.annotated_nodes));

  FILE* json = std::fopen("BENCH_cachemodel.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_cachemodel.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"cachemodel\",\n");
  std::fprintf(json, "  \"sweep\": \"7bench_O3_MI_6_3_2IS_cache\",\n");
  std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(json, "  \"timing_repeats\": %d,\n", repeats);
  std::fprintf(json, "  \"explore_repeats\": %d,\n", null_config.repeats);
  std::fprintf(json, "  \"jobs\": %d,\n", null_config.jobs);
  std::fprintf(json, "  \"cache_config\": \"%s\",\n",
               cache_config.cache->label().c_str());
  std::fprintf(json, "  \"identity_ok\": %s,\n",
               identity_ok ? "true" : "false");
  std::fprintf(json, "  \"null_identity\": %s,\n",
               null_identity ? "true" : "false");
  std::fprintf(json, "  \"jobs_identity\": %s,\n",
               jobs_identity ? "true" : "false");
  std::fprintf(json, "  \"changed_programs\": %d,\n", changed_programs);
  std::fprintf(json, "  \"effect_ok\": %s,\n", effect_ok ? "true" : "false");
  std::fprintf(json, "  \"overhead\": %.4f,\n", overhead);
  std::fprintf(json, "  \"overhead_ceiling\": %.2f,\n", ceiling);
  std::fprintf(json, "  \"overhead_ok\": %s,\n",
               overhead_ok ? "true" : "false");
  std::fprintf(json, "  \"l1_hit_rate\": %.4f,\n",
               cached.cache_stats.l1_hit_rate());
  std::fprintf(json, "  \"accesses\": %llu,\n",
               static_cast<unsigned long long>(cached.cache_stats.accesses));
  std::fprintf(json, "  \"annotated_nodes\": %llu,\n",
               static_cast<unsigned long long>(
                   cached.cache_stats.annotated_nodes));
  std::fprintf(json, "  \"null_seconds_each\": [");
  for (std::size_t r = 0; r < null_seconds.size(); ++r)
    std::fprintf(json, "%s%.4f", r > 0 ? ", " : "", null_seconds[r]);
  std::fprintf(json, "],\n  \"cache_seconds_each\": [");
  for (std::size_t r = 0; r < cached_seconds.size(); ++r)
    std::fprintf(json, "%s%.4f", r > 0 ? ", " : "", cached_seconds[r]);
  std::fprintf(json, "],\n  \"programs\": [\n");
  for (std::size_t p = 0; p < programs.size(); ++p) {
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"null_digest\": \"%016llx\", "
                 "\"cache_digest\": \"%016llx\", \"changed\": %s}%s\n",
                 programs[p].name.c_str(),
                 static_cast<unsigned long long>(null_before.digests[p]),
                 static_cast<unsigned long long>(cached.digests[p]),
                 cached.digests[p] != null_before.digests[p] ? "true"
                                                             : "false",
                 p + 1 < programs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_cachemodel.json\n");

  if (!identity_ok) return 1;
  if (!effect_ok) return 1;
  if (!overhead_ok) {
    std::fprintf(stderr, "OVERHEAD GATE FAILED: %.3fx > %.2fx ceiling\n",
                 overhead, ceiling);
    return 1;
  }
  return 0;
}
