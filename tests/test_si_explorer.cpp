// The single-issue (legality-only) baseline, as flow::make_explorer builds
// it for Algorithm::kSingleIssue.
#include <gtest/gtest.h>

#include "flow/design_flow.hpp"
#include "sched/list_scheduler.hpp"
#include "test_util.hpp"

namespace isex::flow {
namespace {

class SiExplorerTest : public ::testing::Test {
 protected:
  core::MultiIssueExplorer si_explorer() {
    FlowConfig config;
    config.machine = sched::MachineConfig::make(2, {6, 3});
    config.algorithm = Algorithm::kSingleIssue;
    return make_explorer(config, lib_);
  }

  hw::HwLibrary lib_ = hw::HwLibrary::paper_default();
};

TEST_F(SiExplorerTest, BaseCyclesAreSequential) {
  // 4 independent pairs: a 1-issue machine needs 8 cycles.
  const dfg::Graph g = testing::make_parallel_pairs(4);
  Rng rng(1);
  const auto r = si_explorer().explore(g, rng);
  EXPECT_EQ(r.base_cycles, 8);
}

TEST_F(SiExplorerTest, FindsIsesOnChains) {
  const dfg::Graph g = testing::make_chain(6, isa::Opcode::kAnd);
  Rng rng(3);
  const auto r = si_explorer().explore_best_of(g, 5, rng);
  EXPECT_FALSE(r.ises.empty());
  EXPECT_LT(r.final_cycles, r.base_cycles);
}

TEST_F(SiExplorerTest, PacksOffCriticalPathOperations) {
  // Wide independent arithmetic: in a sequential model every op "counts",
  // so SI happily packs parallel work that a 4-issue machine would have
  // hidden for free.  This is the wasteful behaviour §1.4 describes.
  const dfg::Graph g = testing::make_parallel_pairs(3, isa::Opcode::kAnd);
  Rng rng(5);
  const auto r = si_explorer().explore_best_of(g, 5, rng);
  // Sequential gain exists, so SI commits hardware.
  EXPECT_FALSE(r.ises.empty());
  // But on a wide machine the same block was already 2 cycles, so the
  // committed area buys nothing there.
  const sched::ListScheduler wide(sched::MachineConfig::make(4, {10, 5}));
  EXPECT_EQ(wide.cycles(g), 2);
}

TEST_F(SiExplorerTest, CandidatesStillLegal) {
  Rng rng(7);
  for (int t = 0; t < 4; ++t) {
    const dfg::Graph g = testing::make_random_dag(25, rng, 0.5);
    Rng r2 = rng.split();
    const auto r = si_explorer().explore(g, r2);
    for (const auto& ise : r.ises) {
      EXPECT_LE(ise.in_count, 6);
      EXPECT_LE(ise.out_count, 3);
      EXPECT_GE(ise.original_nodes.count(), 2u);
    }
  }
}

TEST_F(SiExplorerTest, Deterministic) {
  Rng g_rng(11);
  const dfg::Graph g = testing::make_random_dag(20, g_rng);
  Rng a(5);
  Rng b(5);
  const auto ra = si_explorer().explore_best_of(g, 3, a);
  const auto rb = si_explorer().explore_best_of(g, 3, b);
  EXPECT_EQ(ra.final_cycles, rb.final_cycles);
  EXPECT_DOUBLE_EQ(ra.total_area(), rb.total_area());
}

}  // namespace
}  // namespace isex::flow
