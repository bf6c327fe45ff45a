// Wall-clock micro-benchmarks (google-benchmark) for the per-iteration
// stages the complexity analysis (§4.4) covers: one ant walk, one merit
// update (one Hardware-Grouping component labelling with a single forward
// pass over the hardware-chosen nodes, then per operation only what differs
// for it: x's descendants re-run for an option x did not choose, or a
// software x joined to the components around it), one list schedule, and a
// full single-round exploration, swept over DFG size k.
//
// A custom main injects --benchmark_out=BENCH_explorer.json (JSON format)
// unless the caller passed their own --benchmark_out, so a bare run always
// leaves a machine-readable report next to the other BENCH_*.json files.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "core/ant_walk.hpp"
#include "core/merit.hpp"
#include "core/mi_explorer.hpp"
#include "sched/list_scheduler.hpp"
#include "util/rng.hpp"

namespace {

using namespace isex;

dfg::Graph random_dag(std::size_t n, std::uint64_t seed) {
  static constexpr isa::Opcode kOps[] = {
      isa::Opcode::kAddu, isa::Opcode::kXor, isa::Opcode::kAnd,
      isa::Opcode::kSrl,  isa::Opcode::kSubu, isa::Opcode::kOr,
  };
  Rng rng(seed);
  dfg::Graph g;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = g.add_node(kOps[i % std::size(kOps)]);
    int preds = 0;
    if (i > 0) {
      for (int k = 0; k < 2; ++k) {
        if (rng.next_double() < 0.6) {
          const auto p =
              static_cast<dfg::NodeId>(rng.next_below(static_cast<std::uint32_t>(i)));
          if (!g.has_edge(p, v)) {
            g.add_edge(p, v);
            ++preds;
          }
        }
      }
    }
    g.set_extern_inputs(v, preds >= 2 ? 0 : 2 - preds);
  }
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    if (g.succs(v).empty()) g.set_live_out(v, true);
  return g;
}

void BM_ListSchedule(benchmark::State& state) {
  const dfg::Graph g = random_dag(static_cast<std::size_t>(state.range(0)), 1);
  const sched::ListScheduler sched(sched::MachineConfig::make(2, {6, 3}));
  for (auto _ : state) benchmark::DoNotOptimize(sched.cycles(g));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ListSchedule)->Range(16, 256)->Complexity(benchmark::oNSquared);

void BM_AntWalk(benchmark::State& state) {
  const dfg::Graph g = random_dag(static_cast<std::size_t>(state.range(0)), 2);
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const hw::GPlus gplus(g, lib);
  const core::ExplorerParams params;
  const core::PheromoneState pheromone(gplus, params);
  const core::AntWalk walker(gplus, sched::MachineConfig::make(2, {6, 3}),
                             params);
  const std::vector<double> sp(g.num_nodes(), 1.0);
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(walker.run(pheromone, sp, rng));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AntWalk)->Range(16, 256)->Complexity(benchmark::oNSquared);

// Steady-state hot path: same walk, but reusing one WalkScratch the way
// MultiIssueExplorer::explore does — allocation-free after the first walk.
void BM_AntWalkScratchReuse(benchmark::State& state) {
  const dfg::Graph g = random_dag(static_cast<std::size_t>(state.range(0)), 2);
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const hw::GPlus gplus(g, lib);
  const core::ExplorerParams params;
  const core::PheromoneState pheromone(gplus, params);
  const core::AntWalk walker(gplus, sched::MachineConfig::make(2, {6, 3}),
                             params);
  const std::vector<double> sp(g.num_nodes(), 1.0);
  Rng rng(3);
  core::WalkScratch scratch;
  for (auto _ : state)
    benchmark::DoNotOptimize(walker.run(pheromone, sp, rng, scratch));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AntWalkScratchReuse)
    ->Range(16, 256)
    ->Complexity(benchmark::oNSquared);

/// One merit update per benchmark iteration over a seeded random DAG whose
/// previous-iteration options come from `pick(table, rng)`, reusing one
/// GroupingScratch the way an ACO colony does.
template <typename Pick>
void merit_update(benchmark::State& state, Pick pick) {
  const dfg::Graph g = random_dag(static_cast<std::size_t>(state.range(0)), 4);
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const hw::GPlus gplus(g, lib);
  const dfg::Reachability reach(g);
  core::ExplorerParams params;
  core::PheromoneState pheromone(gplus, params);
  isa::IsaFormat format;
  format.reg_file = {6, 3};
  const core::MeritEngine engine(gplus, format, params, reach);
  const dfg::PathInfo path =
      dfg::longest_path(g, [&](dfg::NodeId v) { return gplus.software_cycles(v); });
  dfg::NodeSet critical = g.all_nodes();
  Rng rng(6);
  std::vector<int> chosen(g.num_nodes());
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    chosen[v] = pick(gplus.table(v), rng);
  core::MeritInputs inputs;
  inputs.chosen = chosen;
  inputs.critical = &critical;
  inputs.path = &path;
  inputs.tet = static_cast<int>(g.num_nodes());
  core::GroupingScratch scratch;
  for (auto _ : state) {
    engine.update(pheromone, inputs, scratch);
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(state.range(0));
}

// Every node on its first hardware option: each weakly-connected piece of
// the DAG is one component whose analysis, forward pass and merit terms all
// its members share.  A member with a second hardware option (add, sub,
// slt) still re-runs its descendants and sums the component's area for it.
void BM_MeritUpdate(benchmark::State& state) {
  merit_update(state, [](hw::IoTableView, Rng&) { return 1; });
}
BENCHMARK(BM_MeritUpdate)->Range(16, 256)->Complexity(benchmark::oNSquared);

// Seeded mix with the software share of a real exploration: over the 2250
// iterations of MiExplorerGoldenTest.LargeRandomBlockExplorationMatchesGolden
// (96 nodes, 9 rounds), 67% of the hardware-capable operations' picks were
// software (per-iteration quartiles 62% and 73%) and no operation was left
// unchosen.  Here each node independently picks software with that share and
// otherwise a random hardware option, so the hardware-chosen nodes fall into
// small components and every software-chosen operation builds its vS_x as
// the union of the components around it.
void BM_MeritUpdateMixed(benchmark::State& state) {
  merit_update(state, [](hw::IoTableView table, Rng& rng) {
    if (rng.next_double() < 0.67 || !table.has_hardware())
      return static_cast<int>(table.first_software());
    return static_cast<int>(
        table.num_software() +
        rng.next_below(static_cast<std::uint32_t>(table.num_hardware())));
  });
}
BENCHMARK(BM_MeritUpdateMixed)
    ->Range(16, 256)
    ->Complexity(benchmark::oNSquared);

void BM_ExploreBlock(benchmark::State& state) {
  const dfg::Graph g = random_dag(static_cast<std::size_t>(state.range(0)), 5);
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  core::ExplorerParams params;
  params.max_iterations = 40;  // bounded for benchmarking
  const core::MultiIssueExplorer explorer(machine, format,
                                          hw::HwLibrary::paper_default(),
                                          params);
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(explorer.explore(g, rng));
  }
}
BENCHMARK(BM_ExploreBlock)->Arg(32)->Arg(64)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  char out_flag[] = "--benchmark_out=BENCH_explorer.json";
  char fmt_flag[] = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
