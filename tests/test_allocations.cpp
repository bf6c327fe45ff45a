// Allocation gates.  The counting global operator new of
// counting_allocator.hpp makes "allocations per warmed-up iteration" an
// exact count, not an estimate.  Each ZeroAllocation test runs a hot loop
// through the library's own functions after a warm-up and requires that it
// allocated nothing; ParseAllocations holds the TAC frontend to a budget per
// DFG node, and GPlusAllocations G+ construction to a fixed handful per
// block.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "core/ant_walk.hpp"
#include "core/merit.hpp"
#include "core/pheromone.hpp"
#include "counting_allocator.hpp"
#include "dfg/analysis.hpp"
#include "dfg/collapsed_view.hpp"
#include "hwlib/gplus.hpp"
#include "hwlib/hw_library.hpp"
#include "isa/tac_parser.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/priority.hpp"
#include "test_util.hpp"

namespace isex::core {
namespace {

// One colony's ACO iteration as MultiIssueExplorer runs it — ant walk,
// trail update, critical set, merit update — on the 96-node block of
// MiExplorerGoldenTest.LargeRandomBlockExplorationMatchesGolden, whose walks
// leave hardware-chosen components of many members.  Every buffer keeps its
// high-water capacity across iterations, so once it has seen an iteration's
// sizes, that iteration allocates nothing.
TEST(ZeroAllocation, WarmedUpAcoIterationAllocatesNothing) {
  Rng graph_rng(96);
  const dfg::Graph g = testing::make_random_dag(96, graph_rng);
  const std::size_t n = g.num_nodes();
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const ExplorerParams params;
  const hw::GPlus gplus(g, lib);
  const dfg::Reachability reach(g);
  const dfg::PathInfo path = dfg::longest_path(
      g, [&](dfg::NodeId v) { return gplus.software_cycles(v); });
  std::vector<double> sp = sched::compute_priorities(g, params.sp_priority);
  double sp_max = 0.0;
  for (const double s : sp) sp_max = std::max(sp_max, s);
  for (double& s : sp) s = s / sp_max * params.merit_scale;
  const AntWalk walker(gplus, machine, params);
  const MeritEngine merit(gplus, format, params, reach);

  PheromoneState pheromone(gplus, params);
  Rng rng(17);
  WalkScratch walk_scratch;
  GroupingScratch grouping;
  dfg::NodeSet critical;
  std::vector<dfg::NodeId> worklist;
  std::vector<int> prev_order(n, -1);
  int tet_old = std::numeric_limits<int>::max();
  // Iterations whose picks put two adjacent nodes on hardware, i.e. formed
  // a component of two or more members, and the sum of their TETs.
  int with_components = 0;
  long long tet_sum = 0;
  auto iterate = [&] {
    const WalkResult& walk = walker.run(pheromone, sp, rng, walk_scratch);
    tet_sum += walk.tet;
    const bool improved = walk.tet <= tet_old;
    pheromone.update_trails(walk.chosen, walk.order, prev_order, improved);
    walk_critical_nodes(g, walk, critical, worklist);
    MeritInputs inputs;
    inputs.chosen = walk.chosen;
    inputs.critical = &critical;
    inputs.path = &path;
    inputs.tet = walk.tet;
    merit.update(pheromone, inputs, grouping);
    if (improved) tet_old = walk.tet;
    prev_order = walk.order;

    auto hardware = [&](dfg::NodeId v) { return walk.chosen[v] > 0; };
    bool component = false;
    for (dfg::NodeId v = 0; v < n && !component; ++v) {
      if (!hardware(v)) continue;
      for (const dfg::NodeId s : g.succs(v)) component = component || hardware(s);
    }
    with_components += component;
  };

  // Past the first iterations' transient, the same 200 iterations run twice
  // from one saved state.  The first run grows every buffer to their
  // high-water sizes, so any allocation in the second is a per-iteration one.
  for (int i = 0; i < 50; ++i) iterate();
  const PheromoneState saved_pheromone = pheromone;
  const Rng saved_rng = rng;
  const std::vector<int> saved_order = prev_order;
  const int saved_tet_old = tet_old;
  tet_sum = 0;
  for (int i = 0; i < 200; ++i) iterate();
  const long long warm_tet_sum = tet_sum;

  pheromone = saved_pheromone;
  rng = saved_rng;
  prev_order = saved_order;
  tet_old = saved_tet_old;
  tet_sum = 0;
  with_components = 0;
  const std::uint64_t before = testing::allocation_count();
  for (int i = 0; i < 200; ++i) iterate();
  const std::uint64_t allocs =
      testing::allocation_count() - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(tet_sum, warm_tet_sum);  // the replay ran the same iterations
  EXPECT_EQ(with_components, 200);
}

}  // namespace
}  // namespace isex::core

namespace isex::sched {
namespace {

// Candidate evaluation as the explorer runs it: one dfg::CollapsedView and
// one SchedulerScratch reused across a stream of candidates.  The streams
// are perf_candidates' random cases: windows of 2..8 consecutive
// topological positions over two seeded DAGs, port-legalized for the
// 2-issue {6, 3} machine.  After one pass every buffer has seen each
// candidate's sizes, so a replay of the same stream allocates nothing, the
// step from the last candidate back to the first included.
TEST(ZeroAllocation, WarmedUpCandidateEvaluationAllocatesNothing) {
  const auto machine = MachineConfig::make(2, {6, 3});
  const ListScheduler scheduler(machine);
  Rng rng(42);
  for (const std::size_t n : {24u, 48u}) {
    const dfg::Graph g = testing::make_random_dag(n, rng, 0.55);
    const std::vector<dfg::NodeId> topo = g.topological_order();
    std::vector<std::pair<dfg::NodeSet, dfg::IseInfo>> stream;
    for (std::size_t len = 2; len <= 8; ++len) {
      for (std::size_t start = 0; start + len <= n; start += 2) {
        dfg::NodeSet members(n);
        for (std::size_t i = start; i < start + len; ++i)
          members.insert(topo[i]);
        dfg::IseInfo info;
        info.latency_cycles = 1 + static_cast<int>(len / 4);
        info.area = 4.0 * static_cast<double>(len);
        info.num_inputs = dfg::count_inputs(g, members);
        info.num_outputs = dfg::count_outputs(g, members);
        if (info.num_inputs > machine.reg_file.read_ports ||
            info.num_outputs > machine.reg_file.write_ports)
          continue;
        stream.emplace_back(std::move(members), info);
      }
    }
    ASSERT_FALSE(stream.empty());

    dfg::CollapsedView view;
    SchedulerScratch scratch;
    const auto evaluate = [&] {
      long long cycles = 0;
      for (const auto& [members, info] : stream) {
        view.assign(g, members, info);
        cycles += scheduler.cycles(view, scratch);
      }
      return cycles;
    };
    const long long warm = evaluate();
    const std::uint64_t before = testing::allocation_count();
    const long long replay = evaluate();
    const std::uint64_t allocs =
        testing::allocation_count() - before;
    EXPECT_EQ(allocs, 0u) << n << "-node DAG, " << stream.size()
                          << " candidates";
    EXPECT_EQ(replay, warm);
  }
}

}  // namespace
}  // namespace isex::sched

namespace isex::isa {
namespace {

// Parsing the 47 paper-suite kernels (the seven programs at O0 and O3)
// allocates at most 6.5 times per DFG node, the outputs' own storage
// included: the graph's per-node adjacency and live-in vectors, each
// statement's operand vector, and a handful of buffers per parse.  Tokens
// are views into the source and names resolve through one flat table, so
// nothing is allocated per token.
TEST(ParseAllocations, SuiteStaysWithinBudget) {
  std::vector<std::string_view> sources;
  for (const auto bm : bench_suite::all_benchmarks())
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3})
      for (const auto& def : bench_suite::kernel_blocks(bm, level))
        sources.push_back(def.tac);
  ASSERT_EQ(sources.size(), 47u);

  std::size_t nodes = 0;
  bool all_parsed = true;
  const std::uint64_t before = testing::allocation_count();
  for (const std::string_view source : sources) {
    const Expected<ParsedBlock> parsed = parse_tac_checked(source);
    all_parsed = all_parsed && parsed.has_value();
    if (parsed.has_value()) nodes += parsed->graph.num_nodes();
  }
  const std::uint64_t allocs =
      testing::allocation_count() - before;
  ASSERT_TRUE(all_parsed);
  EXPECT_LE(2 * allocs, 13 * nodes)
      << allocs << " allocations for " << nodes << " nodes ("
      << static_cast<double>(allocs) / static_cast<double>(nodes)
      << " per node)";
}

}  // namespace
}  // namespace isex::isa

namespace isex::hw {
namespace {

// Building G+ for one of the 47 paper-suite blocks allocates a fixed handful
// of times, whatever the block's size: every flat array and CSR list is
// reserved once from the graph's node, edge and live-in counts, so only the
// topological order's own buffers and one per array remain.  Every round of
// every exploration builds one G+.
TEST(GPlusAllocations, SuiteBlocksAllocateAFixedHandful) {
  std::vector<dfg::Graph> graphs;
  for (const auto bm : bench_suite::all_benchmarks())
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3})
      for (const auto& def : bench_suite::kernel_blocks(bm, level)) {
        Expected<isa::ParsedBlock> parsed = isa::parse_tac_checked(def.tac);
        ASSERT_TRUE(parsed.has_value()) << def.tac;
        graphs.push_back(std::move(parsed->graph));
      }
  ASSERT_EQ(graphs.size(), 47u);

  const HwLibrary library = HwLibrary::paper_default();
  std::uint64_t most = 0;
  std::uint64_t total = 0;
  for (const dfg::Graph& g : graphs) {
    const std::uint64_t before = testing::allocation_count();
    const GPlus gplus(g, library);
    const std::uint64_t allocs = testing::allocation_count() - before;
    most = std::max(most, allocs);
    total += allocs;
  }
  EXPECT_LE(most, 13u) << total << " allocations over 47 G+";
}

}  // namespace
}  // namespace isex::hw
