#include "core/ant_walk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "core/merit.hpp"
#include "core/mi_explorer.hpp"
#include "dfg/analysis.hpp"
#include "golden_hash.hpp"
#include "grouping_reference.hpp"
#include "mem/mem_stream.hpp"
#include "sched/priority.hpp"
#include "sched/schedule.hpp"
#include "test_util.hpp"
#include "walk_reference.hpp"

namespace isex::core {
namespace {

class AntWalkTest : public ::testing::Test {
 protected:
  hw::HwLibrary lib_ = hw::HwLibrary::paper_default();
  ExplorerParams params_;
  sched::MachineConfig machine_ = sched::MachineConfig::make(2, {6, 3});

  WalkResult walk(const dfg::Graph& g, std::uint64_t seed = 1) {
    hw::GPlus gplus(g, lib_);
    PheromoneState pher(gplus, params_);
    AntWalk walker(gplus, machine_, params_);
    Rng rng(seed);
    std::vector<double> sp(g.num_nodes(), 0.0);
    return walker.run(pher, sp, rng);
  }
};

TEST_F(AntWalkTest, AssignsEveryNodeExactlyOnce) {
  Rng rng(3);
  const dfg::Graph g = testing::make_random_dag(30, rng);
  const WalkResult w = walk(g);
  std::vector<bool> seen(g.num_nodes(), false);
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(w.chosen[v], 0);
    EXPECT_GE(w.slot[v], 0);
    ASSERT_GE(w.order[v], 0);
    ASSERT_LT(static_cast<std::size_t>(w.order[v]), g.num_nodes());
    EXPECT_FALSE(seen[static_cast<std::size_t>(w.order[v])]);
    seen[static_cast<std::size_t>(w.order[v])] = true;
  }
}

TEST_F(AntWalkTest, PickOrderRespectsDependences) {
  const dfg::Graph g = testing::make_chain(6);
  const WalkResult w = walk(g);
  for (dfg::NodeId u = 0; u < g.num_nodes(); ++u)
    for (const dfg::NodeId v : g.succs(u)) EXPECT_LT(w.order[u], w.order[v]);
}

TEST_F(AntWalkTest, ConsumersStartAfterProducersFinish) {
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    const dfg::Graph g = testing::make_random_dag(25, rng);
    const WalkResult w = walk(g, rng.next_u32());
    for (dfg::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const dfg::NodeId v : g.succs(u)) {
        if (w.group_id[u] >= 0 && w.group_id[u] == w.group_id[v]) continue;
        EXPECT_GE(w.slot[v], w.finish_of(u))
            << "edge " << u << "->" << v << " violated";
      }
    }
  }
}

TEST_F(AntWalkTest, TetIsMaxFinish) {
  Rng rng(7);
  const dfg::Graph g = testing::make_random_dag(20, rng);
  const WalkResult w = walk(g);
  int max_finish = 0;
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    max_finish = std::max(max_finish, w.finish_of(v));
  EXPECT_EQ(w.tet, max_finish);
}

TEST_F(AntWalkTest, GroupMembersShareSlot) {
  Rng rng(9);
  const dfg::Graph g = testing::make_random_dag(25, rng);
  const WalkResult w = walk(g);
  for (std::size_t gid = 0; gid < w.groups.size(); ++gid) {
    const GroupState& grp = w.groups[gid];
    EXPECT_FALSE(grp.members.empty());
    grp.members.for_each([&](dfg::NodeId m) {
      EXPECT_EQ(w.group_id[m], static_cast<int>(gid));
      EXPECT_EQ(w.slot[m], grp.start);
    });
    EXPECT_EQ(grp.cycles, hw::ClockSpec{}.cycles_for(grp.depth_ns));
  }
}

TEST_F(AntWalkTest, SoftwareOnlyWalkMatchesUnitLatency) {
  // With no hardware options, the walk degrades to plain list placement.
  hw::HwLibrary empty;
  const dfg::Graph g = testing::make_chain(5);
  hw::GPlus gplus(g, empty);
  PheromoneState pher(gplus, params_);
  AntWalk walker(gplus, machine_, params_);
  Rng rng(1);
  std::vector<double> sp(g.num_nodes(), 0.0);
  const WalkResult w = walker.run(pher, sp, rng);
  EXPECT_EQ(w.tet, 5);
  EXPECT_TRUE(w.groups.empty());
}

TEST_F(AntWalkTest, IssueWidthRespectedForSoftwareOps) {
  hw::HwLibrary empty;
  const dfg::Graph g = testing::make_parallel_pairs(4);  // 8 ops
  hw::GPlus gplus(g, empty);
  PheromoneState pher(gplus, params_);
  AntWalk walker(gplus, machine_, params_);
  Rng rng(2);
  std::vector<double> sp(g.num_nodes(), 0.0);
  const WalkResult w = walker.run(pher, sp, rng);
  std::vector<int> per_cycle(static_cast<std::size_t>(w.tet) + 1, 0);
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    per_cycle[static_cast<std::size_t>(w.slot[v])]++;
  for (const int n : per_cycle) EXPECT_LE(n, machine_.issue_width);
}

TEST_F(AntWalkTest, GroupPortsStayWithinFormat) {
  Rng rng(11);
  for (int t = 0; t < 10; ++t) {
    const dfg::Graph g = testing::make_random_dag(30, rng);
    const WalkResult w = walk(g, rng.next_u32());
    for (const GroupState& grp : w.groups) {
      EXPECT_LE(grp.reads, machine_.reg_file.read_ports);
      EXPECT_LE(grp.writes, machine_.reg_file.write_ports);
    }
  }
}

TEST_F(AntWalkTest, EmptyGraph) {
  dfg::Graph g;
  const WalkResult w = walk(g);
  EXPECT_EQ(w.tet, 0);
  EXPECT_TRUE(w.chosen.empty());
}

TEST_F(AntWalkTest, DeterministicGivenSeed) {
  Rng rng(13);
  const dfg::Graph g = testing::make_random_dag(20, rng);
  const WalkResult a = walk(g, 777);
  const WalkResult b = walk(g, 777);
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(a.tet, b.tet);
}

TEST_F(AntWalkTest, ReusedScratchMatchesFreshScratch) {
  // One scratch carried across many walks over *different* graphs must
  // behave exactly like a fresh scratch per walk — leftover buffer contents
  // and capacities from a previous (larger or smaller) graph can't leak
  // into the result.
  Rng gen(17);
  WalkScratch reused;
  for (const std::size_t n : {30u, 8u, 45u, 3u, 45u}) {
    const dfg::Graph g = testing::make_random_dag(n, gen);
    hw::GPlus gplus(g, lib_);
    PheromoneState pher(gplus, params_);
    AntWalk walker(gplus, machine_, params_);
    std::vector<double> sp(g.num_nodes(), 1.0);
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t seed = 1000 + 7 * i;
      Rng rng_fresh(seed);
      Rng rng_reused(seed);
      const WalkResult fresh = walker.run(pher, sp, rng_fresh);
      const WalkResult& again = walker.run(pher, sp, rng_reused, reused);
      EXPECT_EQ(testing::hash_walk(fresh), testing::hash_walk(again))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(AntWalkTest, GoldenHashMatchesPreOptimizationWalk) {
  // Golden captured from the pre-optimization walk (per-step Ready-Matrix
  // rebuild, per-entry weight calls): the incremental hot path must draw
  // the same RNG sequence and produce bit-identical placements.
  Rng gen(13);
  const dfg::Graph g = testing::make_random_dag(40, gen);
  hw::GPlus gplus(g, lib_);
  PheromoneState pher(gplus, params_);
  AntWalk walker(gplus, machine_, params_);
  std::vector<double> sp(g.num_nodes(), 1.0);
  Rng rng(777);
  std::uint64_t h = 0;
  for (int i = 0; i < 5; ++i) {
    const WalkResult w = walker.run(pher, sp, rng);
    h ^= testing::hash_walk(w) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  EXPECT_EQ(h, 0x460014a70ddc6bebULL);
}

TEST_F(AntWalkTest, LongChainWalkStaysLinear) {
  // A 1k-node chain has exactly one ready node per step.  The incremental
  // Ready-Matrix therefore never shifts a surviving entry during compaction
  // (the O(n) per-step erase the old per-step rebuild paid is gone), so the
  // walk's step cost is flat rather than quadratic in chain length.
  constexpr std::size_t kNodes = 1000;
  const dfg::Graph g = testing::make_chain(kNodes);
  hw::GPlus gplus(g, lib_);
  PheromoneState pher(gplus, params_);
  AntWalk walker(gplus, machine_, params_);
  std::vector<double> sp(g.num_nodes(), 1.0);
  Rng rng(5);
  WalkScratch scratch;
  walker.run(pher, sp, rng, scratch);
  EXPECT_EQ(scratch.steps, kNodes);
  EXPECT_EQ(scratch.entry_shifts, 0u);  // no compaction movement at all
  // Never more than one node's options in the matrix at once.
  std::size_t max_options = 0;
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    max_options = std::max(max_options, gplus.num_options(v));
  EXPECT_LE(scratch.max_entries, max_options);
}

// ---------------------------------------------------------------------------
// AntWalkEquivalence: every field of the optimized walk against the reference
// walk of walk_reference.hpp, from the same generator state, over pheromone
// states trained by real iterations.
// ---------------------------------------------------------------------------

::testing::AssertionResult same_walk(const WalkResult& got,
                                     const testing::RefResult& want) {
  if (got.chosen != want.chosen)
    return ::testing::AssertionFailure() << "chosen";
  if (got.slot != want.slot) return ::testing::AssertionFailure() << "slot";
  if (got.order != want.order) return ::testing::AssertionFailure() << "order";
  if (got.group_id != want.group_id)
    return ::testing::AssertionFailure() << "group_id";
  for (dfg::NodeId v = 0; v < want.chosen.size(); ++v) {
    if (got.finish_of(v) != want.finish_of(v))
      return ::testing::AssertionFailure()
             << "finish_of(" << v << "): " << got.finish_of(v) << " vs "
             << want.finish_of(v);
  }
  if (got.groups.size() != want.groups.size())
    return ::testing::AssertionFailure() << "group count";
  for (std::size_t i = 0; i < want.groups.size(); ++i) {
    const GroupState& a = got.groups[i];
    const testing::RefGroup& b = want.groups[i];
    if (!(a.members == b.members) || a.start != b.start ||
        a.depth_ns != b.depth_ns || a.cycles != b.cycles ||
        a.reads != b.reads || a.writes != b.writes)
      return ::testing::AssertionFailure() << "group " << i;
  }
  if (got.tet != want.tet) return ::testing::AssertionFailure() << "tet";
  return ::testing::AssertionSuccess();
}

/// What the compared walks exercised, so the test fails if its inputs stop
/// reaching a path of the walk.
struct WalkCoverage {
  int ise_picks = 0;        // ISE supernodes placed
  int slow_software = 0;    // software placements longer than one cycle
  int probes = 0;           // software placements the ledger pushed back
  int joins = 0;            // groups of more than one member
};

void count_coverage(const dfg::Graph& g, const testing::RefResult& w,
                    WalkCoverage& cov) {
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.node(v).is_ise) ++cov.ise_picks;
    if (w.group_id[v] >= 0) continue;
    if (w.finish[v] - w.slot[v] > 1) ++cov.slow_software;
    int avail = 0;
    for (const dfg::NodeId p : g.preds(v))
      avail = std::max(avail, w.finish_of(p));
    if (w.slot[v] > avail) ++cov.probes;
  }
  for (const testing::RefGroup& grp : w.groups)
    if (grp.members.count() > 1) ++cov.joins;
}

/// Trains a pheromone state on `g` by `iterations` real ACO iterations
/// (walk, trail update, critical set, merit update — AcoChain::step's
/// order) and checks every walk, plus `extra` walks of the trained state,
/// against the reference from the same generator state.
void check_against_reference(const std::string& name, const dfg::Graph& g,
                             const sched::MachineConfig& machine,
                             hw::ClockSpec clock, int iterations, int extra,
                             std::uint64_t seed, WalkCoverage& cov) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const hw::GPlus gplus(g, lib);
  const ExplorerParams params;
  const std::size_t n = g.num_nodes();
  std::vector<double> sp = sched::compute_priorities(g, params.sp_priority);
  double sp_max = 0.0;
  for (const double x : sp) sp_max = std::max(sp_max, x);
  if (sp_max > 0.0)
    for (double& x : sp) x = x / sp_max * params.merit_scale;

  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const dfg::Reachability reach(g);
  const MeritEngine merit(gplus, format, params, reach, clock);
  const dfg::PathInfo path = dfg::longest_path(
      g, [&](dfg::NodeId v) { return gplus.software_cycles(v); });
  const AntWalk walker(gplus, machine, params, clock);

  PheromoneState pheromone(gplus, params);
  WalkScratch scratch;
  GroupingScratch grouping;
  dfg::NodeSet critical;
  std::vector<dfg::NodeId> worklist;
  std::vector<int> prev_order(n, -1);
  int tet_old = std::numeric_limits<int>::max();
  Rng rng(seed);
  for (int it = 0; it < iterations + extra; ++it) {
    Rng ref_rng = rng;
    const WalkResult& walk = walker.run(pheromone, sp, rng, scratch);
    const testing::RefResult want = testing::reference_walk(
        gplus, machine, params, pheromone, sp, ref_rng, clock);
    ASSERT_TRUE(same_walk(walk, want)) << name << " walk " << it;
    ASSERT_TRUE(rng == ref_rng) << name << " generator after walk " << it;
    count_coverage(g, want, cov);
    if (it >= iterations) continue;  // the trained state stays fixed

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
  }
}

/// `block` with the ISEs an exploration committed on it collapsed into
/// supernodes, as the flow's replacement pass applies them.
dfg::Graph collapse_explored(const dfg::Graph& block,
                             const sched::MachineConfig& machine,
                             std::uint64_t seed) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  ExplorerParams params;
  params.max_iterations = 60;
  const MultiIssueExplorer explorer(machine, format, lib, params);
  Rng rng(seed);
  const ExplorationResult explored = explorer.explore(block, rng);
  dfg::Graph current = block;
  std::vector<dfg::NodeId> to_current(block.num_nodes());
  for (dfg::NodeId v = 0; v < block.num_nodes(); ++v) to_current[v] = v;
  for (const ExploredIse& ise : explored.ises) {
    dfg::NodeSet members(current.num_nodes());
    ise.original_nodes.for_each(
        [&](dfg::NodeId orig) { members.insert(to_current[orig]); });
    dfg::IseInfo info;
    info.latency_cycles = ise.eval.latency_cycles;
    info.area = ise.eval.area;
    info.num_inputs = ise.in_count;
    info.num_outputs = ise.out_count;
    std::vector<dfg::NodeId> old_to_new;
    current = current.collapse(members, info, &old_to_new);
    for (dfg::NodeId& c : to_current) c = old_to_new[c];
  }
  return current;
}

TEST(AntWalkEquivalence, MatchesReferenceWalk) {
  // The paper's 2-issue 6/3 machine, and a 2-issue 4/2 machine whose ports
  // bind often enough that the ledger probes past the earliest cycle.
  const sched::MachineConfig wide = sched::MachineConfig::make(2, {6, 3});
  const sched::MachineConfig tight = sched::MachineConfig::make(2, {4, 2});
  const hw::ClockSpec paper_clock;
  hw::ClockSpec fast_clock;
  fast_clock.period_ns = 3.0;  // multi-cycle groups
  WalkCoverage cov;
  Rng gen(2024);

  // Random DAGs of 8–96 nodes: the test-suite generator, and blocks with
  // shared live-in values, loads and multiplies.
  for (int t = 0; t < 24; ++t) {
    const std::size_t n = 8 + gen.next_below(89);
    const dfg::Graph g =
        t % 2 == 0
            ? testing::make_random_dag(n, gen)
            : testing::random_block(n, gen, 0.3 + 0.6 * gen.next_double());
    check_against_reference("random " + std::to_string(t), g,
                            t % 3 == 0 ? wide : tight,
                            t % 4 == 1 ? fast_clock : paper_clock, 25, 3,
                            gen.next_u32(), cov);
    if (HasFatalFailure()) return;
  }

  // The 7×{O0, O3} suite blocks, as written, cache-annotated, and with an
  // exploration's ISEs collapsed into supernodes (ISE port counts, no FU
  // class).
  mem::CacheConfig small_cache;
  small_cache.l1 = {256, 1, 32, 1};
  int annotated_slow = 0;
  for (const auto bm : bench_suite::all_benchmarks()) {
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3}) {
      const flow::ProfiledProgram prog = bench_suite::make_program(bm, level);
      for (std::size_t b = 0; b < prog.blocks.size(); ++b) {
        const std::string name = prog.name + "/" + prog.blocks[b].name;
        const dfg::Graph& block = prog.blocks[b].graph;
        check_against_reference(name, block, tight, paper_clock, 10, 2,
                                gen.next_u32(), cov);
        if (HasFatalFailure()) return;

        dfg::Graph annotated = block;
        mem::annotate_graph(annotated, small_cache);
        for (dfg::NodeId v = 0; v < annotated.num_nodes(); ++v)
          if (annotated.node(v).mem_latency > 1) ++annotated_slow;
        check_against_reference(name + " cached", annotated, wide,
                                paper_clock, 10, 2, gen.next_u32(), cov);
        if (HasFatalFailure()) return;

        const dfg::Graph collapsed =
            collapse_explored(block, tight, gen.next_u32());
        check_against_reference(name + " collapsed", collapsed, tight,
                                paper_clock, 10, 2, gen.next_u32(), cov);
        if (HasFatalFailure()) return;
      }
    }
  }

  EXPECT_GT(annotated_slow, 0);
  EXPECT_GT(cov.ise_picks, 100);
  EXPECT_GT(cov.slow_software, 100);
  EXPECT_GT(cov.probes, 1000);
  EXPECT_GT(cov.joins, 1000);
}

/// What the critical-set comparison exercised: sets compared, sets the
/// closure grew past the makespan finishers, sets that absorbed a group of
/// two or more members, and sets that needed a tight-producer chain of two
/// or more hops.
struct CriticalCoverage {
  int compared = 0;
  int grown = 0;
  int group_absorbed = 0;
  int long_chains = 0;
};

/// Runs `iterations` ACO iterations on `g` in AcoChain::step's order (walk,
/// trail update, critical set, merit update) and checks every walk's
/// one-pass critical set against the sweep reference.
void check_critical_sets(const std::string& name, const dfg::Graph& g,
                         const sched::MachineConfig& machine,
                         hw::ClockSpec clock, int iterations,
                         std::uint64_t seed, CriticalCoverage& cov) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const hw::GPlus gplus(g, lib);
  const ExplorerParams params;
  const std::size_t n = g.num_nodes();
  std::vector<double> sp = sched::compute_priorities(g, params.sp_priority);
  double sp_max = 0.0;
  for (const double x : sp) sp_max = std::max(sp_max, x);
  if (sp_max > 0.0)
    for (double& x : sp) x = x / sp_max * params.merit_scale;
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const dfg::Reachability reach(g);
  const MeritEngine merit(gplus, format, params, reach, clock);
  const dfg::PathInfo path = dfg::longest_path(
      g, [&](dfg::NodeId v) { return gplus.software_cycles(v); });
  const AntWalk walker(gplus, machine, params, clock);

  PheromoneState pheromone(gplus, params);
  WalkScratch scratch;
  GroupingScratch grouping;
  dfg::NodeSet critical;
  dfg::NodeSet want;
  std::vector<dfg::NodeId> worklist;
  std::vector<int> prev_order(n, -1);
  int tet_old = std::numeric_limits<int>::max();
  Rng rng(seed);
  for (int it = 0; it < iterations; ++it) {
    const WalkResult& walk = walker.run(pheromone, sp, rng, scratch);
    const bool improved = walk.tet <= tet_old;
    pheromone.update_trails(walk.chosen, walk.order, prev_order, improved);
    walk_critical_nodes(g, walk, critical, worklist);
    testing::reference_critical_nodes(g, walk, want);
    ASSERT_TRUE(critical == want) << name << " iteration " << it;

    ++cov.compared;
    std::size_t finishers = 0;
    for (dfg::NodeId v = 0; v < n; ++v)
      finishers += walk.finish_of(v) == walk.tet ? 1 : 0;
    cov.grown += critical.count() > finishers ? 1 : 0;
    bool absorbed = false;
    for (const GroupState& group : walk.groups)
      absorbed = absorbed ||
                 (group.members.count() > 1 && group.members.intersects(want));
    cov.group_absorbed += absorbed ? 1 : 0;
    // A tight producer of a tight producer of a critical node.
    bool chain = false;
    want.for_each([&](dfg::NodeId v) {
      for (const dfg::NodeId p : g.preds(v)) {
        if (walk.finish_of(p) != walk.slot[v]) continue;
        for (const dfg::NodeId q : g.preds(p))
          chain = chain || walk.finish_of(q) == walk.slot[p];
      }
    });
    cov.long_chains += chain ? 1 : 0;

    MeritInputs inputs;
    inputs.chosen = walk.chosen;
    inputs.critical = &critical;
    inputs.path = &path;
    inputs.tet = walk.tet;
    merit.update(pheromone, inputs, grouping);
    if (improved) tet_old = walk.tet;
    prev_order = walk.order;
  }
}

TEST(AntWalkEquivalence, CriticalSetMatchesSweepReference) {
  const sched::MachineConfig wide = sched::MachineConfig::make(2, {6, 3});
  const sched::MachineConfig tight = sched::MachineConfig::make(2, {4, 2});
  const hw::ClockSpec paper_clock;
  hw::ClockSpec fast_clock;
  fast_clock.period_ns = 3.0;  // multi-cycle groups
  CriticalCoverage cov;
  Rng gen(4242);

  for (int t = 0; t < 16; ++t) {
    const std::size_t n = 8 + gen.next_below(89);
    const dfg::Graph g =
        t % 2 == 0
            ? testing::make_random_dag(n, gen)
            : testing::random_block(n, gen, 0.3 + 0.6 * gen.next_double());
    check_critical_sets("random " + std::to_string(t), g,
                        t % 3 == 0 ? wide : tight,
                        t % 4 == 1 ? fast_clock : paper_clock, 60,
                        gen.next_u32(), cov);
    if (HasFatalFailure()) return;
  }
  // The 7×{O0, O3} suite blocks, as written and with an exploration's ISEs
  // collapsed into supernodes.
  for (const auto bm : bench_suite::all_benchmarks()) {
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3}) {
      const flow::ProfiledProgram prog = bench_suite::make_program(bm, level);
      for (const flow::ProfiledBlock& block : prog.blocks) {
        const std::string name = prog.name + "/" + block.name;
        check_critical_sets(name, block.graph, tight, paper_clock, 40,
                            gen.next_u32(), cov);
        if (HasFatalFailure()) return;
        check_critical_sets(name + " collapsed",
                            collapse_explored(block.graph, tight,
                                              gen.next_u32()),
                            wide, paper_clock, 20, gen.next_u32(), cov);
        if (HasFatalFailure()) return;
      }
    }
  }

  EXPECT_GT(cov.compared, 3000);
  EXPECT_GT(cov.grown, 1000);
  EXPECT_GT(cov.group_absorbed, 500);
  EXPECT_GT(cov.long_chains, 500);
}

}  // namespace
}  // namespace isex::core
