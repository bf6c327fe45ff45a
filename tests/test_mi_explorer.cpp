#include "core/mi_explorer.hpp"

#include <gtest/gtest.h>

#include "bench_suite/kernels.hpp"
#include "golden_hash.hpp"
#include "isa/tac_parser.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/list_scheduler.hpp"
#include "test_util.hpp"

namespace isex::core {
namespace {

class MiExplorerTest : public ::testing::Test {
 protected:
  MultiIssueExplorer make_explorer(int issue, int rports, int wports) {
    const auto machine = sched::MachineConfig::make(issue, {rports, wports});
    isa::IsaFormat format;
    format.reg_file = machine.reg_file;
    return MultiIssueExplorer(machine, format, lib_, params_);
  }

  hw::HwLibrary lib_ = hw::HwLibrary::paper_default();
  ExplorerParams params_;
};

TEST_F(MiExplorerTest, EmptyBlock) {
  const auto explorer = make_explorer(2, 6, 3);
  Rng rng(1);
  const ExplorationResult r = explorer.explore(dfg::Graph{}, rng);
  EXPECT_EQ(r.base_cycles, 0);
  EXPECT_TRUE(r.ises.empty());
}

TEST_F(MiExplorerTest, SoftwareOnlyBlockFindsNothing) {
  dfg::Graph g;
  const auto a = g.add_node(isa::Opcode::kLw, "a");
  const auto b = g.add_node(isa::Opcode::kLw, "b");
  g.set_extern_inputs(a, 1);
  g.set_extern_inputs(b, 1);
  const auto explorer = make_explorer(2, 6, 3);
  Rng rng(1);
  const ExplorationResult r = explorer.explore(g, rng);
  EXPECT_TRUE(r.ises.empty());
  EXPECT_EQ(r.base_cycles, r.final_cycles);
}

TEST_F(MiExplorerTest, ChainGetsCompressed) {
  const dfg::Graph g = testing::make_chain(6, isa::Opcode::kAnd);
  const auto explorer = make_explorer(2, 6, 3);
  Rng rng(11);
  const ExplorationResult r = explorer.explore_best_of(g, 5, rng);
  EXPECT_EQ(r.base_cycles, 6);
  EXPECT_LT(r.final_cycles, r.base_cycles);
  ASSERT_FALSE(r.ises.empty());
  EXPECT_GT(r.total_gain(), 0);
}

TEST_F(MiExplorerTest, GainsAccountExactly) {
  const dfg::Graph g = testing::make_chain(8, isa::Opcode::kXor);
  const auto explorer = make_explorer(2, 6, 3);
  Rng rng(5);
  const ExplorationResult r = explorer.explore_best_of(g, 3, rng);
  int gain_sum = 0;
  for (const auto& ise : r.ises) gain_sum += ise.gain_cycles;
  EXPECT_EQ(gain_sum, r.total_gain());
}

TEST_F(MiExplorerTest, CommittedIsesAreDisjointInOriginalCoordinates) {
  Rng rng(23);
  const dfg::Graph g = testing::make_random_dag(30, rng, 0.5);
  const auto explorer = make_explorer(2, 6, 3);
  const ExplorationResult r = explorer.explore(g, rng);
  dfg::NodeSet seen(g.num_nodes());
  for (const auto& ise : r.ises) {
    EXPECT_FALSE(seen.intersects(ise.original_nodes));
    seen |= ise.original_nodes;
    EXPECT_GE(ise.original_nodes.count(), 2u);
    EXPECT_GT(ise.gain_cycles, 0);
  }
}

TEST_F(MiExplorerTest, IsesRespectPortConstraints) {
  Rng rng(29);
  for (int t = 0; t < 4; ++t) {
    const dfg::Graph g = testing::make_random_dag(25, rng, 0.5);
    const auto explorer = make_explorer(2, 4, 2);
    Rng r2 = rng.split();
    const ExplorationResult r = explorer.explore(g, r2);
    for (const auto& ise : r.ises) {
      EXPECT_LE(ise.in_count, 4);
      EXPECT_LE(ise.out_count, 2);
      EXPECT_GE(ise.eval.latency_cycles, 1);
      EXPECT_GT(ise.eval.area, 0.0);
    }
  }
}

TEST_F(MiExplorerTest, NoMemoryOpsInsideIse) {
  const isa::ParsedBlock block = isa::parse_tac(R"(
    a = xor x, y
    b = srl a, 3
    adr = addu base, b
    v = lw [adr]
    c = addu v, a
    d = and c, b
    live_out d
  )");
  const auto explorer = make_explorer(2, 6, 3);
  Rng rng(3);
  const ExplorationResult r = explorer.explore_best_of(block.graph, 5, rng);
  const dfg::NodeId load = testing::defined_node(block, "v");
  for (const auto& ise : r.ises)
    EXPECT_FALSE(ise.original_nodes.contains(load));
}

TEST_F(MiExplorerTest, DeterministicAcrossRuns) {
  Rng rng(31);
  const dfg::Graph g = testing::make_random_dag(20, rng);
  const auto explorer = make_explorer(2, 6, 3);
  Rng a(99);
  Rng b(99);
  const ExplorationResult ra = explorer.explore_best_of(g, 3, a);
  const ExplorationResult rb = explorer.explore_best_of(g, 3, b);
  EXPECT_EQ(ra.final_cycles, rb.final_cycles);
  EXPECT_EQ(ra.ises.size(), rb.ises.size());
  EXPECT_DOUBLE_EQ(ra.total_area(), rb.total_area());
}

TEST_F(MiExplorerTest, FinalCyclesMatchRescheduledGraph) {
  // Re-applying the committed ISEs to the original block must reproduce
  // final_cycles exactly.
  const dfg::Graph g = testing::make_chain(6, isa::Opcode::kAnd);
  const auto explorer = make_explorer(2, 6, 3);
  Rng rng(7);
  const ExplorationResult r = explorer.explore_best_of(g, 5, rng);
  dfg::Graph current = g;
  std::vector<dfg::NodeId> to_current(g.num_nodes());
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) to_current[v] = v;
  for (const auto& ise : r.ises) {
    dfg::NodeSet members(current.num_nodes());
    ise.original_nodes.for_each(
        [&](dfg::NodeId v) { members.insert(to_current[v]); });
    dfg::IseInfo info;
    info.latency_cycles = ise.eval.latency_cycles;
    info.area = ise.eval.area;
    info.num_inputs = ise.in_count;
    info.num_outputs = ise.out_count;
    std::vector<dfg::NodeId> remap;
    current = current.collapse(members, info, &remap);
    for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
      to_current[v] = remap[to_current[v]];
  }
  const sched::ListScheduler scheduler(explorer.machine());
  EXPECT_EQ(scheduler.cycles(current), r.final_cycles);
}

TEST_F(MiExplorerTest, WiderMachineNeverLosesToNarrowOnBase) {
  const dfg::Graph g = testing::make_parallel_pairs(4);
  Rng rng(41);
  const ExplorationResult narrow = make_explorer(1, 4, 2).explore(g, rng);
  Rng rng2(41);
  const ExplorationResult wide = make_explorer(4, 10, 5).explore(g, rng2);
  EXPECT_LE(wide.base_cycles, narrow.base_cycles);
}

// Golden hashes captured from the pre-optimization explorer (per-step
// Ready-Matrix rebuild, fresh walk buffers, per-cycle scheduler re-sort).
// The hot-path overhaul promises byte-identical output, so the full
// exploration digest over two seed benchmarks must never move.
class MiExplorerGoldenTest : public MiExplorerTest {
 protected:
  ExplorationResult explore_hottest_block(bench_suite::Benchmark bm) {
    const flow::ProfiledProgram prog =
        bench_suite::make_program(bm, bench_suite::OptLevel::kO3);
    const auto explorer = make_explorer(2, 6, 3);
    Rng rng(17);
    return explorer.explore(prog.blocks.front().graph, rng);
  }
};

TEST_F(MiExplorerGoldenTest, Crc32ExplorationMatchesGolden) {
  const ExplorationResult r =
      explore_hottest_block(bench_suite::Benchmark::kCrc32);
  EXPECT_EQ(r.base_cycles, 21);
  EXPECT_EQ(r.final_cycles, 7);
  EXPECT_EQ(r.ises.size(), 3u);
  EXPECT_EQ(testing::hash_exploration(r), 0x1cb513da36971670ULL);
}

TEST_F(MiExplorerGoldenTest, AdpcmExplorationMatchesGolden) {
  const ExplorationResult r =
      explore_hottest_block(bench_suite::Benchmark::kAdpcm);
  EXPECT_EQ(r.base_cycles, 14);
  EXPECT_EQ(r.final_cycles, 3);
  EXPECT_EQ(r.ises.size(), 1u);
  EXPECT_EQ(testing::hash_exploration(r), 0x5d13c6222e1386e5ULL);
}

// The suite's hottest blocks have at most 43 nodes and small hardware
// components; a 96-node random DAG grows components of dozens of members,
// so this digest pins Hardware-Grouping where sharing one component's
// analysis across its members matters most.  Captured from the per-node
// grouping implementation.
TEST_F(MiExplorerGoldenTest, LargeRandomBlockExplorationMatchesGolden) {
  Rng graph_rng(96);
  const dfg::Graph g = testing::make_random_dag(96, graph_rng);
  const auto explorer = make_explorer(2, 6, 3);
  Rng rng(17);
  const ExplorationResult r = explorer.explore(g, rng);
  EXPECT_EQ(r.base_cycles, 48);
  EXPECT_EQ(r.final_cycles, 38);
  EXPECT_EQ(r.rounds, 9);
  EXPECT_EQ(r.total_iterations, 2250);
  EXPECT_EQ(r.ises.size(), 8u);
  EXPECT_EQ(testing::hash_exploration(r), 0x123b67925458a45fULL);
}

TEST_F(MiExplorerGoldenTest, ExploreIsIdenticalAtEveryJobCount) {
  // Candidate evaluations inside one explore() round fan out over the pool;
  // the index-ordered reduction must pick the same winner at any width, so
  // the full digest at --jobs 1 and --jobs 8 must both equal the golden
  // value captured from the serial evaluator.
  runtime::ThreadPool::set_default_jobs(1);
  const std::uint64_t jobs1 = testing::hash_exploration(
      explore_hottest_block(bench_suite::Benchmark::kCrc32));
  runtime::ThreadPool::set_default_jobs(8);
  const std::uint64_t jobs8 = testing::hash_exploration(
      explore_hottest_block(bench_suite::Benchmark::kCrc32));
  runtime::ThreadPool::set_default_jobs(0);  // restore auto width
  EXPECT_EQ(jobs1, 0x1cb513da36971670ULL);
  EXPECT_EQ(jobs8, 0x1cb513da36971670ULL);
}

TEST(BetterCandidate, PinsTheCommitTieBreak) {
  // §4.0 step 3 commit rule: higher gain wins; equal gain falls back to
  // strictly smaller area; a full (gain, area) tie keeps the incumbent.
  // Because the reduction scans candidates in ascending index order, the
  // last property is what makes the parallel evaluation deterministic: the
  // lowest-indexed candidate of a tied group always wins.
  EXPECT_TRUE(better_candidate(/*gain=*/3, /*area=*/9.0, 2, 1.0));
  EXPECT_FALSE(better_candidate(2, 1.0, 3, 9.0));
  EXPECT_TRUE(better_candidate(2, 4.0, 2, 5.0));   // tie: smaller area
  EXPECT_FALSE(better_candidate(2, 5.0, 2, 4.0));  // tie: larger area
  EXPECT_FALSE(better_candidate(2, 4.0, 2, 4.0));  // full tie: keep incumbent
}

TEST_F(MiExplorerGoldenTest, BestOfIsIdenticalAtEveryJobCount) {
  // The per-explore WalkScratch is reused across a fan-out job's rounds;
  // the digest at --jobs 1 and --jobs 8 must match exactly (same seed, same
  // result, any thread count).
  const flow::ProfiledProgram prog = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO3);
  const dfg::Graph& g = prog.blocks.front().graph;
  const auto explorer = make_explorer(2, 6, 3);

  runtime::ThreadPool::set_default_jobs(1);
  Rng rng1(17);
  const std::uint64_t jobs1 =
      testing::hash_exploration(explorer.explore_best_of(g, 5, rng1));

  runtime::ThreadPool::set_default_jobs(8);
  Rng rng8(17);
  const std::uint64_t jobs8 =
      testing::hash_exploration(explorer.explore_best_of(g, 5, rng8));
  runtime::ThreadPool::set_default_jobs(0);  // restore auto width

  EXPECT_EQ(jobs1, jobs8);
}

TEST_F(MiExplorerTest, RoundAndIterationCountsAreBounded) {
  ExplorerParams tight = params_;
  tight.max_iterations = 10;
  tight.max_rounds = 2;
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const MultiIssueExplorer explorer(machine, format, lib_, tight);
  const dfg::Graph g = testing::make_chain(10, isa::Opcode::kAnd);
  Rng rng(1);
  const ExplorationResult r = explorer.explore(g, rng);
  EXPECT_LE(r.rounds, 2);
  EXPECT_LE(r.total_iterations, 2 * 10);
}

}  // namespace
}  // namespace isex::core
