// Multi-colony exploration tests (docs/PERFORMANCE.md).
//
// Pins the three contracts the colony path makes:
//   1. colonies == 1 is the paper's serial loop, byte-identical to the
//      pre-colonies explorer (the legacy golden digests must not move);
//   2. for any fixed (seed, colonies, merge_interval) the result is
//      bit-identical at every --jobs width — colonies are a search
//      parameter, never a function of the thread count;
//   3. the merge barrier is a pure function of the indexed contributions:
//      submitting colonies in any completion order yields the same merged
//      pheromone state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "core/mi_explorer.hpp"
#include "core/pheromone.hpp"
#include "golden_hash.hpp"
#include "runtime/pool_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "test_util.hpp"

namespace isex::core {
namespace {

class ColonyGoldenTest : public ::testing::Test {
 protected:
  ExplorationResult explore_hottest_block(bench_suite::Benchmark bm,
                                          int colonies,
                                          int merge_interval = 8) {
    const flow::ProfiledProgram prog =
        bench_suite::make_program(bm, bench_suite::OptLevel::kO3);
    ExplorerParams params;
    params.colonies = colonies;
    params.merge_interval = merge_interval;
    const auto machine = sched::MachineConfig::make(2, {6, 3});
    isa::IsaFormat format;
    format.reg_file = machine.reg_file;
    const MultiIssueExplorer explorer(machine, format,
                                      hw::HwLibrary::paper_default(), params);
    Rng rng(17);
    return explorer.explore(prog.blocks.front().graph, rng);
  }
};

// The legacy digest from MiExplorerGoldenTest.AdpcmExplorationMatchesGolden:
// colonies == 1 takes the untouched serial chain, so it must reproduce it.
TEST_F(ColonyGoldenTest, ColoniesOneReproducesLegacyAdpcmGolden) {
  const ExplorationResult r =
      explore_hottest_block(bench_suite::Benchmark::kAdpcm, /*colonies=*/1);
  EXPECT_EQ(r.base_cycles, 14);
  EXPECT_EQ(r.final_cycles, 3);
  EXPECT_EQ(testing::hash_exploration(r), 0x5d13c6222e1386e5ULL);
}

TEST_F(ColonyGoldenTest, ColoniesTwoMatchesGolden) {
  const ExplorationResult r =
      explore_hottest_block(bench_suite::Benchmark::kAdpcm, /*colonies=*/2);
  EXPECT_EQ(r.base_cycles, 14);
  EXPECT_EQ(testing::hash_exploration(r), 0x846ec1c85e45f363ULL);
}

TEST_F(ColonyGoldenTest, ColoniesEightMatchesGolden) {
  const ExplorationResult r =
      explore_hottest_block(bench_suite::Benchmark::kAdpcm, /*colonies=*/8);
  EXPECT_EQ(r.base_cycles, 14);
  EXPECT_EQ(testing::hash_exploration(r), 0x8fd877fe5ff8fd77ULL);
}

// A 96-node random DAG: four colonies labelling and sharing large hardware
// components concurrently, each in its own grouping scratch.  Captured from
// the per-node grouping implementation.
TEST_F(ColonyGoldenTest, LargeRandomBlockFourColoniesMatchesGolden) {
  Rng graph_rng(96);
  const dfg::Graph g = testing::make_random_dag(96, graph_rng);
  ExplorerParams params;
  params.colonies = 4;
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const MultiIssueExplorer explorer(machine, format,
                                    hw::HwLibrary::paper_default(), params);
  Rng rng(17);
  const ExplorationResult r = explorer.explore(g, rng);
  EXPECT_EQ(r.base_cycles, 48);
  EXPECT_EQ(r.final_cycles, 37);
  EXPECT_EQ(r.rounds, 8);
  EXPECT_EQ(r.total_iterations, 2016);
  EXPECT_EQ(r.ises.size(), 7u);
  EXPECT_EQ(testing::hash_exploration(r), 0x467cdf975bfc881dULL);
}

TEST_F(ColonyGoldenTest, ExploreIsIdenticalAtEveryJobCountPerColonyCount) {
  // The epoch fan-out runs colony chains concurrently; every cross-colony
  // reduction is index-ordered, so the digest at --jobs 1 and --jobs 8 must
  // match for every colony count.
  for (const int colonies : {1, 2, 8}) {
    runtime::ThreadPool::set_default_jobs(1);
    const std::uint64_t jobs1 = testing::hash_exploration(
        explore_hottest_block(bench_suite::Benchmark::kAdpcm, colonies));
    runtime::ThreadPool::set_default_jobs(8);
    const std::uint64_t jobs8 = testing::hash_exploration(
        explore_hottest_block(bench_suite::Benchmark::kAdpcm, colonies));
    runtime::ThreadPool::set_default_jobs(0);  // restore auto width
    EXPECT_EQ(jobs1, jobs8) << "colonies=" << colonies;
  }
}

TEST_F(ColonyGoldenTest, MoreColoniesThanAntsClampsToAntBudget) {
  // Effective colony count is min(colonies, max_iterations), so asking for
  // more colonies than the round has ants must behave exactly like asking
  // for max_iterations colonies — every colony still walks at least once.
  const flow::ProfiledProgram prog = bench_suite::make_program(
      bench_suite::Benchmark::kAdpcm, bench_suite::OptLevel::kO3);
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();

  ExplorerParams params;
  params.max_iterations = 4;
  params.colonies = 64;  // > ant budget
  const MultiIssueExplorer oversub(machine, format, lib, params);
  Rng rng_a(17);
  const ExplorationResult a =
      oversub.explore(prog.blocks.front().graph, rng_a);

  params.colonies = 4;  // == ant budget: the clamp target
  const MultiIssueExplorer exact(machine, format, lib, params);
  Rng rng_b(17);
  const ExplorationResult b = exact.explore(prog.blocks.front().graph, rng_b);

  EXPECT_EQ(testing::hash_exploration(a), testing::hash_exploration(b));
  EXPECT_GT(a.total_iterations, 0);
  EXPECT_EQ(a.base_cycles, 14);
}

TEST_F(ColonyGoldenTest, TraceRowsCarryColonyIdsInIndexOrder) {
  const flow::ProfiledProgram prog = bench_suite::make_program(
      bench_suite::Benchmark::kAdpcm, bench_suite::OptLevel::kO3);
  ExplorerParams params;
  params.colonies = 4;
  params.collect_trace = true;
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const MultiIssueExplorer explorer(machine, format,
                                    hw::HwLibrary::paper_default(), params);
  Rng rng(17);
  const ExplorationResult r = explorer.explore(prog.blocks.front().graph, rng);
  ASSERT_FALSE(r.trace.empty());
  // Every colony walked; within a round, rows are drained in colony-index
  // order and each colony's best_tet curve is non-increasing.
  std::vector<int> colonies_seen;
  int prev_round = -1;
  int prev_colony = -1;
  int prev_best = 0;
  for (const IterationTrace& t : r.trace) {
    EXPECT_GE(t.colony, 0);
    EXPECT_LT(t.colony, 4);
    if (t.round != prev_round || t.colony != prev_colony) {
      EXPECT_TRUE(t.round > prev_round ||
                  (t.round == prev_round && t.colony > prev_colony));
      prev_round = t.round;
      prev_colony = t.colony;
      prev_best = t.best_tet;
      colonies_seen.push_back(t.colony);
    } else {
      EXPECT_LE(t.best_tet, prev_best);
      prev_best = t.best_tet;
    }
  }
  EXPECT_NE(std::find(colonies_seen.begin(), colonies_seen.end(), 3),
            colonies_seen.end());
}

TEST_F(ColonyGoldenTest, ProfiledColonyEpochsRecordTheirSection) {
  // A profiled pool times each epoch as one explore.colonies invocation with
  // one task per colony, and profiling never changes what colonies compute.
  const std::uint64_t plain = testing::hash_exploration(
      explore_hottest_block(bench_suite::Benchmark::kAdpcm, /*colonies=*/4));
  runtime::ThreadPool& pool = runtime::ThreadPool::default_pool();
  runtime::reset_parallel_sections();
  pool.set_profiling(true);
  const std::uint64_t profiled = testing::hash_exploration(
      explore_hottest_block(bench_suite::Benchmark::kAdpcm, /*colonies=*/4));
  pool.set_profiling(false);
  const std::vector<runtime::SectionProfile> sections =
      runtime::parallel_sections_snapshot();
  runtime::reset_parallel_sections();

  EXPECT_EQ(profiled, plain);
  const auto colonies =
      std::find_if(sections.begin(), sections.end(),
                   [](const runtime::SectionProfile& section) {
                     return section.name == "explore.colonies";
                   });
  ASSERT_NE(colonies, sections.end());
  EXPECT_GT(colonies->invocations, 0u);
  EXPECT_EQ(colonies->tasks, 4 * colonies->invocations);
}

// --- merge barrier --------------------------------------------------------

class PheromoneMergerTest : public ::testing::Test {
 protected:
  PheromoneMergerTest()
      : graph_(testing::make_chain(4, isa::Opcode::kAddu)),
        lib_(hw::HwLibrary::paper_default()),
        gplus_(graph_, lib_) {}

  /// A colony state whose trails/merits diverge deterministically with `tag`.
  PheromoneState make_state(int tag) {
    PheromoneState state(gplus_, params_);
    for (dfg::NodeId v = 0; v < state.num_nodes(); ++v) {
      for (std::size_t o = 0; o < state.num_options(v); ++o) {
        state.set_trail(v, o, 1.0 + tag * 3.0 + static_cast<double>(v + o));
        state.set_merit(v, o, 50.0 + tag * 10.0 + static_cast<double>(o));
      }
    }
    return state;
  }

  dfg::Graph graph_;
  hw::HwLibrary lib_;
  hw::GPlus gplus_;
  ExplorerParams params_;
};

TEST_F(PheromoneMergerTest, MergeIsSubmissionOrderInvariant) {
  // The tentpole determinism claim: the merged state depends on *which*
  // colony contributed what, never on the order contributions arrive — the
  // parallel epoch may complete colonies in any permutation.
  const PheromoneState a = make_state(0);
  const PheromoneState b = make_state(1);
  const PheromoneState c = make_state(2);
  const std::vector<int> chosen_a(4, 0);
  const std::vector<int> chosen_b(4, 1);
  const std::vector<int> chosen_c(4, 2);

  PheromoneState merged_fwd(gplus_, params_);
  {
    PheromoneMerger merger(3, params_);
    merger.submit(0, a, /*best_tet=*/9, chosen_a);
    merger.submit(1, b, /*best_tet=*/7, chosen_b);
    merger.submit(2, c, /*best_tet=*/8, chosen_c);
    merger.finalize_into(merged_fwd);
  }
  PheromoneState merged_shuffled(gplus_, params_);
  {
    PheromoneMerger merger(3, params_);
    merger.submit(2, c, 8, chosen_c);
    merger.submit(0, a, 9, chosen_a);
    merger.submit(1, b, 7, chosen_b);
    merger.finalize_into(merged_shuffled);
  }
  for (dfg::NodeId v = 0; v < merged_fwd.num_nodes(); ++v) {
    for (std::size_t o = 0; o < merged_fwd.num_options(v); ++o) {
      EXPECT_EQ(merged_fwd.trail(v, o), merged_shuffled.trail(v, o))
          << "v=" << v << " o=" << o;
      EXPECT_EQ(merged_fwd.merit(v, o), merged_shuffled.merit(v, o))
          << "v=" << v << " o=" << o;
    }
  }
}

TEST_F(PheromoneMergerTest, BestAntDepositLandsOnWinnersChoice) {
  // Colony 1 holds the lowest best TET, so its best ant's chosen options get
  // the rho1 deposit on top of the evaporated mean.
  const PheromoneState a = make_state(0);
  const PheromoneState b = make_state(1);
  const std::vector<int> chosen_a(4, 0);
  const std::vector<int> chosen_b(4, 1);
  PheromoneMerger merger(2, params_);
  merger.submit(0, a, /*best_tet=*/9, chosen_a);
  merger.submit(1, b, /*best_tet=*/5, chosen_b);
  EXPECT_EQ(merger.winner(), 1u);

  PheromoneState merged(gplus_, params_);
  merger.finalize_into(merged);
  const double keep = 1.0 - params_.merge_evaporation;
  for (dfg::NodeId v = 0; v < merged.num_nodes(); ++v) {
    const double mean0 = (a.trail(v, 0) + b.trail(v, 0)) / 2.0;
    const double mean1 = (a.trail(v, 1) + b.trail(v, 1)) / 2.0;
    EXPECT_DOUBLE_EQ(merged.trail(v, 0), keep * mean0);
    EXPECT_DOUBLE_EQ(merged.trail(v, 1), keep * mean1 + params_.rho1);
  }
}

TEST_F(PheromoneMergerTest, WinnerTieBreaksToLowestColonyIndex) {
  const PheromoneState a = make_state(0);
  const PheromoneState b = make_state(1);
  const PheromoneState c = make_state(2);
  const std::vector<int> chosen(4, 0);
  PheromoneMerger merger(3, params_);
  merger.submit(0, a, /*best_tet=*/6, chosen);
  merger.submit(1, b, /*best_tet=*/5, chosen);
  merger.submit(2, c, /*best_tet=*/5, chosen);
  EXPECT_EQ(merger.winner(), 1u);  // tie between 1 and 2 keeps the lower
}

TEST_F(PheromoneMergerTest, MergedMeritsAreRenormalizedPerNode) {
  const PheromoneState a = make_state(0);
  const PheromoneState b = make_state(3);
  const std::vector<int> chosen(4, 0);
  PheromoneMerger merger(2, params_);
  merger.submit(0, a, 4, chosen);
  merger.submit(1, b, 4, chosen);
  PheromoneState merged(gplus_, params_);
  merger.finalize_into(merged);
  for (dfg::NodeId v = 0; v < merged.num_nodes(); ++v) {
    double best = 0.0;
    for (std::size_t o = 0; o < merged.num_options(v); ++o)
      best = std::max(best, merged.merit(v, o));
    EXPECT_DOUBLE_EQ(best, params_.merit_scale);
  }
}

}  // namespace
}  // namespace isex::core
