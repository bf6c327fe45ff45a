// Pipestage timing constraint (§5.1): an ISE's ASFU latency may be capped
// by the ISA format; grouping flags violations, merit decays them, and
// extraction trims candidates until they fit.
#include <gtest/gtest.h>

#include "core/candidate.hpp"
#include "core/hardware_grouping.hpp"
#include "core/mi_explorer.hpp"
#include "test_util.hpp"

namespace isex::core {
namespace {

class PipestageTest : public ::testing::Test {
 protected:
  hw::HwLibrary lib_ = hw::HwLibrary::paper_default();

  isa::IsaFormat capped_format(int cap) {
    isa::IsaFormat fmt;
    fmt.reg_file = {6, 3};
    fmt.max_ise_latency_cycles = cap;
    return fmt;
  }
};

TEST_F(PipestageTest, GroupingFlagsDeepCandidates) {
  // Four chained slow adders: best mix ~>10 ns, needs ≥2 cycles.
  const dfg::Graph g = testing::make_chain(4, isa::Opcode::kAddu);
  hw::GPlus gplus(g, lib_);
  dfg::Reachability reach(g);
  const HardwareGrouping hg(gplus, capped_format(1), reach);
  const std::vector<int> prev{1, 1, 1, 1};
  GroupingScratch scratch;
  hg.label_components(prev, scratch);
  const VirtualCandidate& cand = hg.group(1, scratch);
  ASSERT_EQ(cand.size(), 4u);
  EXPECT_TRUE(cand.timing_violation);

  // Cap of 2 cycles admits it (4 × 2.12 = 8.48 ns on HW-2... 1 cycle; even
  // HW-1 mix at 16.16 ns = 2 cycles).
  const HardwareGrouping relaxed(gplus, capped_format(2), reach);
  relaxed.label_components(prev, scratch);
  EXPECT_FALSE(relaxed.group(1, scratch).timing_violation);
}

TEST_F(PipestageTest, UnboundedFormatNeverFlags) {
  const dfg::Graph g = testing::make_chain(8, isa::Opcode::kAddu);
  hw::GPlus gplus(g, lib_);
  dfg::Reachability reach(g);
  const HardwareGrouping hg(gplus, capped_format(0), reach);
  const std::vector<int> all_hw(8, 1);
  GroupingScratch scratch;
  hg.label_components(all_hw, scratch);
  EXPECT_FALSE(hg.group(0, scratch).timing_violation);
}

TEST_F(PipestageTest, ExtractionTrimsToCap) {
  // 8 chained slow adders taken as hardware: unbounded extraction yields a
  // deep ISE; a 1-cycle cap must shed members until the ASFU fits.
  const dfg::Graph g = testing::make_chain(8, isa::Opcode::kAddu);
  hw::GPlus gplus(g, lib_);
  dfg::Reachability reach(g);
  const std::vector<int> taken(8, 1);  // HW-1, 4.04 ns each

  const auto unbounded =
      extract_candidates(gplus, capped_format(0), taken, reach);
  ASSERT_FALSE(unbounded.empty());
  EXPECT_GT(unbounded[0].eval.latency_cycles, 1);

  const auto capped = extract_candidates(gplus, capped_format(1), taken, reach);
  for (const IseCandidate& cand : capped) {
    EXPECT_LE(cand.eval.latency_cycles, 1);
    EXPECT_GE(cand.size(), 2u);
  }
  ASSERT_FALSE(capped.empty());  // two 4.04 ns adders still fit one cycle
}

TEST_F(PipestageTest, ExplorerHonoursCapEndToEnd) {
  Rng rng(9);
  const dfg::Graph g = testing::make_random_dag(30, rng, 0.55);
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  const MultiIssueExplorer explorer(machine, capped_format(1), lib_);
  Rng run_rng(5);
  const ExplorationResult result = explorer.explore_best_of(g, 3, run_rng);
  for (const auto& ise : result.ises)
    EXPECT_EQ(ise.eval.latency_cycles, 1);
}

TEST_F(PipestageTest, CapReducesAchievableGain) {
  const dfg::Graph g = testing::make_chain(10, isa::Opcode::kXor);
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  Rng a(3);
  Rng b(3);
  const MultiIssueExplorer unbounded(machine, capped_format(0), lib_);
  const MultiIssueExplorer capped(machine, capped_format(1), lib_);
  const auto ru = unbounded.explore_best_of(g, 3, a);
  const auto rc = capped.explore_best_of(g, 3, b);
  EXPECT_LE(ru.final_cycles, rc.final_cycles);
}

}  // namespace
}  // namespace isex::core
