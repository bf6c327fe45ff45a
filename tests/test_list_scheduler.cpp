#include "sched/list_scheduler.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace isex::sched {
namespace {

MachineConfig two_issue() { return MachineConfig::make(2, {4, 2}); }

TEST(ListScheduler, ChainTakesLengthCycles) {
  const dfg::Graph g = testing::make_chain(6);
  const ListScheduler sched(two_issue());
  EXPECT_EQ(sched.cycles(g), 6);  // dependence-bound regardless of width
}

TEST(ListScheduler, ParallelPairsExploitWidth) {
  const dfg::Graph g = testing::make_parallel_pairs(2);  // 4 ops, 2 lanes
  EXPECT_EQ(ListScheduler(MachineConfig::make(1, {4, 2})).cycles(g), 4);
  EXPECT_EQ(ListScheduler(two_issue()).cycles(g), 2);
}

TEST(ListScheduler, IssueWidthLimitsThroughput) {
  // 8 independent ops.
  dfg::Graph g;
  for (int i = 0; i < 8; ++i) {
    const auto v = g.add_node(isa::Opcode::kAddu, testing::indexed_name("i", i));
    g.set_extern_inputs(v, 2);
    g.set_live_out(v, true);
  }
  EXPECT_EQ(ListScheduler(MachineConfig::make(4, {10, 5})).cycles(g), 2);
  EXPECT_EQ(ListScheduler(MachineConfig::make(2, {4, 2})).cycles(g), 4);
  EXPECT_EQ(ListScheduler(MachineConfig::make(1, {4, 2})).cycles(g), 8);
}

TEST(ListScheduler, ReadPortsConstrain) {
  // 2-issue but only 2 read ports: two 2-source adds cannot co-issue.
  dfg::Graph g;
  for (int i = 0; i < 4; ++i) {
    const auto v = g.add_node(isa::Opcode::kAddu, testing::indexed_name("i", i));
    g.set_extern_inputs(v, 2);
    g.set_live_out(v, true);
  }
  const MachineConfig tight = MachineConfig::make(2, {2, 2});
  EXPECT_EQ(ListScheduler(tight).cycles(g), 4);
  const MachineConfig wide = MachineConfig::make(2, {4, 2});
  EXPECT_EQ(ListScheduler(wide).cycles(g), 2);
}

TEST(ListScheduler, WritePortsConstrain) {
  dfg::Graph g;
  for (int i = 0; i < 4; ++i) {
    const auto v = g.add_node(isa::Opcode::kAddiu, testing::indexed_name("i", i));
    g.set_extern_inputs(v, 1);
    g.set_live_out(v, true);
  }
  const MachineConfig tight = MachineConfig::make(2, {4, 1});
  EXPECT_EQ(ListScheduler(tight).cycles(g), 4);
}

TEST(ListScheduler, FunctionalUnitsConstrain) {
  // Two independent multiplies, one multiplier: serialized even at 2-issue.
  dfg::Graph g;
  for (int i = 0; i < 2; ++i) {
    const auto v = g.add_node(isa::Opcode::kMult, testing::indexed_name("m", i));
    g.set_extern_inputs(v, 2);
    g.set_live_out(v, true);
  }
  EXPECT_EQ(ListScheduler(two_issue()).cycles(g), 2);
  MachineConfig dual = two_issue();
  dual.fu_counts[static_cast<std::size_t>(isa::FuClass::kMult)] = 2;
  EXPECT_EQ(ListScheduler(dual).cycles(g), 1);
}

TEST(ListScheduler, MultiCycleIseDelaysConsumers) {
  dfg::Graph g;
  dfg::IseInfo info;
  info.latency_cycles = 2;
  info.num_inputs = 2;
  info.num_outputs = 1;
  const auto ise = g.add_ise_node(info, "ISE");
  const auto user = g.add_node(isa::Opcode::kAddu, "u");
  g.add_edge(ise, user);
  g.set_live_out(user, true);
  const Schedule s = ListScheduler(two_issue()).run(g);
  EXPECT_EQ(s.slot[ise], 0);
  EXPECT_EQ(s.slot[user], 2);
  EXPECT_EQ(s.cycles, 3);
}

TEST(ListScheduler, IseDoesNotConsumeCoreFu) {
  // An ISE and a mult in the same cycle: the ISE runs on its ASFU.
  dfg::Graph g;
  dfg::IseInfo info;
  info.num_inputs = 1;
  info.num_outputs = 1;
  const auto ise = g.add_ise_node(info, "ISE");
  const auto m = g.add_node(isa::Opcode::kMult, "m");
  g.set_extern_inputs(m, 2);
  g.set_live_out(m, true);
  g.set_live_out(ise, true);
  const Schedule s = ListScheduler(MachineConfig::make(2, {6, 3})).run(g);
  EXPECT_EQ(s.cycles, 1);
}

TEST(ListScheduler, IsePortUsage) {
  // A 4-input ISE on a 4-read-port file leaves no read ports for a peer.
  dfg::Graph g;
  dfg::IseInfo info;
  info.num_inputs = 4;
  info.num_outputs = 1;
  const auto ise = g.add_ise_node(info, "ISE");
  const auto a = g.add_node(isa::Opcode::kAddu, "a");
  g.set_extern_inputs(a, 2);
  g.set_live_out(a, true);
  g.set_live_out(ise, true);
  EXPECT_EQ(ListScheduler(two_issue()).cycles(g), 2);
  EXPECT_EQ(ListScheduler(MachineConfig::make(2, {6, 3})).cycles(g), 1);
}

TEST(ListScheduler, EmptyGraph) {
  dfg::Graph g;
  const Schedule s = ListScheduler(two_issue()).run(g);
  EXPECT_EQ(s.cycles, 0);
}

TEST(ListScheduler, PriorityKindCanChangeScheduleNotValidity) {
  Rng rng(31);
  const dfg::Graph g = testing::make_random_dag(30, rng);
  for (const auto kind : {PriorityKind::kChildCount, PriorityKind::kMobility,
                          PriorityKind::kDescendantCount}) {
    const Schedule s = ListScheduler(two_issue(), kind).run(g);
    EXPECT_TRUE(respects_dependences(g, s));
  }
}

// Property sweep: schedules over random DAGs are dependence- and
// resource-valid, and wider machines never schedule slower.
class SchedulerProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerProperty, ValidAndMonotoneInWidth) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  const dfg::Graph g = testing::make_random_dag(40, rng);

  int previous = 0;
  for (const int width : {1, 2, 3, 4}) {
    const MachineConfig cfg =
        MachineConfig::make(width, {2 * width + 2, width + 1});
    const Schedule s = ListScheduler(cfg).run(g);
    EXPECT_TRUE(respects_dependences(g, s));

    // Per-cycle resource audit.
    std::vector<int> issue(s.cycles, 0);
    std::vector<int> reads(s.cycles, 0);
    std::vector<int> writes(s.cycles, 0);
    for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_GE(s.slot[v], 0);
      ASSERT_LT(s.slot[v], s.cycles);
      issue[s.slot[v]] += 1;
      reads[s.slot[v]] += read_ports_used(g, v);
      writes[s.slot[v]] += write_ports_used(g, v);
    }
    for (int c = 0; c < s.cycles; ++c) {
      EXPECT_LE(issue[c], cfg.issue_width);
      EXPECT_LE(reads[c], cfg.reg_file.read_ports);
      EXPECT_LE(writes[c], cfg.reg_file.write_ports);
    }

    if (width > 1) {
      EXPECT_LE(s.cycles, previous);
    }
    previous = s.cycles;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty, ::testing::Range(1, 21));

}  // namespace
}  // namespace isex::sched
