#include "core/merit.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace isex::core {
namespace {

class MeritTest : public ::testing::Test {
 protected:
  MeritTest() : lib_(hw::HwLibrary::paper_default()) {}

  /// Runs `iterations` merit updates over `g` given previous choices and a
  /// critical set; returns the post-update state.  (A single decay never
  /// flips the initial 200:100 hardware:software ratio — the algorithm
  /// relies on repeated evaporation, so several tests iterate.)
  PheromoneState run_update(const dfg::Graph& g, const std::vector<int>& chosen,
                            const dfg::NodeSet& critical, int tet,
                            int iterations = 1) {
    hw::GPlus gplus(g, lib_);
    dfg::Reachability reach(g);
    PheromoneState state(gplus, params_);
    MeritEngine engine(gplus, format_, params_, reach);
    GroupingScratch scratch;
    const dfg::PathInfo path = dfg::longest_path(
        g, [&](dfg::NodeId v) { return gplus.software_cycles(v); });
    MeritInputs inputs;
    inputs.chosen = chosen;
    inputs.critical = &critical;
    inputs.path = &path;
    inputs.tet = tet;
    for (int i = 0; i < iterations; ++i) engine.update(state, inputs, scratch);
    return state;
  }

  hw::HwLibrary lib_;
  isa::IsaFormat format_;
  ExplorerParams params_;
};

TEST_F(MeritTest, SingletonCandidateDecaysHardwareMerit) {
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAnd);
  dfg::NodeSet critical(3);  // nothing critical
  // One βSize = 0.7 decay narrows the gap; by the fourth iteration the
  // 200:100 initial ratio has flipped (2 × 0.7⁴ < 1).
  const PheromoneState once = run_update(g, {0, 0, 0}, critical, 3, 1);
  const PheromoneState often = run_update(g, {0, 0, 0}, critical, 3, 4);
  for (dfg::NodeId v = 0; v < 3; ++v) {
    EXPECT_LT(once.merit(v, 1) / once.merit(v, 0), 2.0);  // decayed
    EXPECT_LT(often.merit(v, 1), often.merit(v, 0));      // flipped
  }
}

TEST_F(MeritTest, UsefulChainCandidateBoostsHardware) {
  // All three ands chose hardware: vS of each is the full chain, legal,
  // saving = 3 sw cycles - 1 hw cycle = 2 > 0.
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAnd);
  dfg::NodeSet critical = dfg::NodeSet::of(3, {0, 1, 2});
  const PheromoneState state = run_update(g, {1, 1, 1}, critical, 3);
  for (dfg::NodeId v = 0; v < 3; ++v)
    EXPECT_GT(state.merit(v, 1), state.merit(v, 0));
}

TEST_F(MeritTest, CriticalPathBoostsRelativeToNonCritical) {
  // Two independent and-chains; only the first is critical.
  dfg::Graph g;
  std::vector<int> chosen;
  for (int lane = 0; lane < 2; ++lane) {
    dfg::NodeId prev = dfg::kInvalidNode;
    for (int i = 0; i < 3; ++i) {
      const auto v = g.add_node(isa::Opcode::kAnd);
      if (prev != dfg::kInvalidNode) g.add_edge(prev, v);
      prev = v;
      chosen.push_back(1);
    }
    g.set_live_out(prev, true);
  }
  dfg::NodeSet critical = dfg::NodeSet::of(6, {0, 1, 2});
  const PheromoneState state = run_update(g, chosen, critical, 3);
  // Same structure; the critical lane's hardware merit must be >= the
  // non-critical lane's after normalization (case 1 boost + case 4 branch).
  EXPECT_GE(state.merit(0, 1), state.merit(3, 1));
}

TEST_F(MeritTest, IoViolationShrinksMerit) {
  dfg::Graph g;
  std::vector<int> chosen;
  const auto x = g.add_node(isa::Opcode::kXor, "x");
  chosen.push_back(1);
  for (int i = 0; i < 5; ++i) {
    const auto p = g.add_node(isa::Opcode::kAnd);
    g.set_extern_inputs(p, 2);
    g.add_edge(p, x);
    chosen.push_back(1);
  }
  dfg::NodeSet critical(6);
  // βIO = 0.8 per iteration: ratio 2 × 0.8⁴ < 1 by the fourth update.
  const PheromoneState state = run_update(g, chosen, critical, 2, 4);
  // In(vS) = 10 > 4: hardware merit decays below software everywhere.
  EXPECT_LT(state.merit(x, 1), state.merit(x, 0));
}

TEST_F(MeritTest, SoftwareMeritScalesWithExecutionTime) {
  // An ISE supernode's "software" option delay multiplies its merit, but a
  // single-option node is normalized back to scale — verify no blow-up.
  dfg::Graph g;
  dfg::IseInfo info;
  info.latency_cycles = 4;
  g.add_ise_node(info, "ISE");
  dfg::NodeSet critical(1);
  const PheromoneState state = run_update(g, {0}, critical, 4);
  EXPECT_DOUBLE_EQ(state.merit(0, 0), params_.merit_scale);
}

TEST_F(MeritTest, MaxAecWindowOfSlackChain) {
  // a -> b -> d plus a -> c -> d where c..d is the critical lane (via an
  // extra node), giving b slack.
  dfg::Graph g;
  const auto a = g.add_node(isa::Opcode::kAnd, "a");
  const auto b = g.add_node(isa::Opcode::kAnd, "b");
  const auto c1 = g.add_node(isa::Opcode::kAnd, "c1");
  const auto c2 = g.add_node(isa::Opcode::kAnd, "c2");
  const auto d = g.add_node(isa::Opcode::kAnd, "d");
  g.add_edge(a, b);
  g.add_edge(b, d);
  g.add_edge(a, c1);
  g.add_edge(c1, c2);
  g.add_edge(c2, d);
  const dfg::PathInfo path =
      dfg::longest_path(g, [](dfg::NodeId) { return 1.0; });
  dfg::NodeSet bset(5);
  bset.insert(b);
  // b: earliest start 1, latest finish 3 within a length-4 schedule.
  EXPECT_DOUBLE_EQ(
      MeritEngine::max_allowable_cycles(g, bset, path, /*tet=*/4), 2.0);
  // A longer actual schedule (resource stalls) widens the window.
  EXPECT_DOUBLE_EQ(
      MeritEngine::max_allowable_cycles(g, bset, path, /*tet=*/6), 4.0);
}

TEST_F(MeritTest, LocalityUnawareTreatsAllAsCritical) {
  params_.locality_aware = false;
  // Non-critical chain still gets the full hardware boost under SI rules.
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAnd);
  dfg::NodeSet critical(3);  // empty — but SI must ignore this
  const PheromoneState state = run_update(g, {1, 1, 1}, critical, 3);
  for (dfg::NodeId v = 0; v < 3; ++v)
    EXPECT_GT(state.merit(v, 1), state.merit(v, 0));
}

TEST_F(MeritTest, FasterOptionPreferredWhenItSavesACycle) {
  // Synthetic two-option cell where the slow variant pushes the chain over
  // the 10 ns cycle boundary: HW-1 = 6 ns, HW-2 = 2 ns.  With the
  // neighbour on HW-1, x on HW-1 gives 12 ns (2 cycles, saving 0) while
  // x on HW-2 gives 8 ns (1 cycle, saving 1).  Case 4 must prefer HW-2.
  lib_.set_hardware_options(
      isa::Opcode::kAddu,
      {{hw::ImplKind::kHardware, "HW-1", 6.0, 500.0},
       {hw::ImplKind::kHardware, "HW-2", 2.0, 1500.0}});
  const dfg::Graph g = testing::make_chain(2, isa::Opcode::kAddu);
  dfg::NodeSet critical = dfg::NodeSet::of(2, {0, 1});
  const PheromoneState state = run_update(g, {1, 1}, critical, 2);
  for (dfg::NodeId v = 0; v < 2; ++v)
    EXPECT_GT(state.merit(v, 2), state.merit(v, 1));
}

TEST_F(MeritTest, CheaperOptionPreferredWhenCyclesTie) {
  // Both adder options keep the real Table 5.1.1 chain at one cycle, so the
  // area ratio must favour the small HW-1 cell.
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAddu);
  dfg::NodeSet critical = dfg::NodeSet::of(3, {0, 1, 2});
  const PheromoneState state = run_update(g, {2, 2, 2}, critical, 3);
  for (dfg::NodeId v = 0; v < 3; ++v)
    EXPECT_GE(state.merit(v, 1), state.merit(v, 2));
}

}  // namespace
}  // namespace isex::core
