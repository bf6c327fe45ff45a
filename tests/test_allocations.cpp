// Allocation gates.  A counting global operator new makes "allocations per
// warmed-up iteration" an exact count, not an estimate; each ZeroAllocation
// test runs a hot loop through the library's own functions after a warm-up
// and requires that it allocated nothing, and ParseAllocations holds the TAC
// frontend to a budget per DFG node.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string_view>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "core/ant_walk.hpp"
#include "core/merit.hpp"
#include "core/pheromone.hpp"
#include "dfg/analysis.hpp"
#include "hwlib/hw_library.hpp"
#include "isa/tac_parser.hpp"
#include "sched/priority.hpp"
#include "test_util.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

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
// The nothrow forms are replaced too (std::stable_partition's temporary
// buffer uses them), so every delete below frees memory this file
// allocated: a sanitizer's own operator new would not pair with free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size != 0 ? size : 1) == 0)
    return p;
  return nullptr;
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

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

    auto hardware = [&](dfg::NodeId v) {
      return gplus.table(v).is_hardware(
          static_cast<std::size_t>(walk.chosen[v]));
    };
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
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) iterate();
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(tet_sum, warm_tet_sum);  // the replay ran the same iterations
  EXPECT_EQ(with_components, 200);
}

}  // namespace
}  // namespace isex::core

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
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (const std::string_view source : sources) {
    const Expected<ParsedBlock> parsed = parse_tac_checked(source);
    all_parsed = all_parsed && parsed.has_value();
    if (parsed.has_value()) nodes += parsed->graph.num_nodes();
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(all_parsed);
  EXPECT_LE(2 * allocs, 13 * nodes)
      << allocs << " allocations for " << nodes << " nodes ("
      << static_cast<double>(allocs) / static_cast<double>(nodes)
      << " per node)";
}

}  // namespace
}  // namespace isex::isa
