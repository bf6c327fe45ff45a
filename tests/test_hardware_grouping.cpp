#include "core/hardware_grouping.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "grouping_reference.hpp"
#include "test_util.hpp"

namespace isex::core {
namespace {

class GroupingTest : public ::testing::Test {
 protected:
  hw::HwLibrary lib_ = hw::HwLibrary::paper_default();
  isa::IsaFormat format_;  // 4/2 default

  VirtualCandidate group(const dfg::Graph& g, dfg::NodeId x,
                         const std::vector<int>& prev) {
    hw::GPlus gplus(g, lib_);
    dfg::Reachability reach(g);
    HardwareGrouping hg(gplus, format_, reach);
    GroupingScratch scratch;
    hg.label_components(prev, scratch);
    return hg.group(x, scratch);
  }
};

TEST_F(GroupingTest, LoneNodeWithoutHardwareNeighbours) {
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAnd);
  // Everyone chose software (option 0) previously.
  const VirtualCandidate c = group(g, 1, {0, 0, 0});
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.members.contains(1));
}

TEST_F(GroupingTest, AbsorbsHardwareChosenNeighbours) {
  const dfg::Graph g = testing::make_chain(4, isa::Opcode::kAnd);
  // Nodes 0 and 2 chose hardware (option 1); 3 chose software.
  const VirtualCandidate c = group(g, 1, {1, 0, 1, 0});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.members.contains(0));
  EXPECT_TRUE(c.members.contains(2));
  EXPECT_FALSE(c.members.contains(3));
}

TEST_F(GroupingTest, ReachesTransitivelyThroughHardwareNodes) {
  const dfg::Graph g = testing::make_chain(5, isa::Opcode::kAnd);
  // 1-2-3 all hardware: grouping from 0 pulls the whole run.
  const VirtualCandidate c = group(g, 0, {0, 1, 1, 1, 0});
  EXPECT_EQ(c.size(), 4u);  // 0 + 1 + 2 + 3
}

TEST_F(GroupingTest, StopsAtSoftwareBarrier) {
  const dfg::Graph g = testing::make_chain(5, isa::Opcode::kAnd);
  // 1 software, 3 hardware: 3 is unreachable through the barrier at 1.
  const VirtualCandidate c = group(g, 0, {0, 0, 0, 1, 0});
  EXPECT_EQ(c.size(), 1u);
}

TEST_F(GroupingTest, EvaluatesEveryHardwareOptionOfX) {
  const dfg::Graph g = testing::make_chain(2, isa::Opcode::kAddu);
  const VirtualCandidate c = group(g, 0, {0, 1});  // node1 on HW-1
  ASSERT_EQ(c.per_option.size(), 3u);
  EXPECT_FALSE(c.per_option[0].valid);  // software slot unused
  ASSERT_TRUE(c.per_option[1].valid);
  ASSERT_TRUE(c.per_option[2].valid);
  // HW-1 (4.04) + neighbour HW-1 (4.04) = 8.08 ns.
  EXPECT_NEAR(c.per_option[1].depth_ns, 8.08, 1e-9);
  // HW-2 (2.12) + 4.04 = 6.16 ns; bigger area.
  EXPECT_NEAR(c.per_option[2].depth_ns, 6.16, 1e-9);
  EXPECT_GT(c.per_option[2].area, c.per_option[1].area);
  EXPECT_EQ(c.per_option[1].cycles, 1);
}

TEST_F(GroupingTest, SoftwareReferenceTimes) {
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAnd);
  const VirtualCandidate c = group(g, 1, {1, 0, 1});
  EXPECT_DOUBLE_EQ(c.sw_seq_cycles, 3.0);
}

TEST_F(GroupingTest, ParallelMembersDepthVsSeq) {
  dfg::Graph g;  // x with two independent hardware-chosen parents
  const auto p1 = g.add_node(isa::Opcode::kAnd, "p1");
  const auto p2 = g.add_node(isa::Opcode::kAnd, "p2");
  const auto x = g.add_node(isa::Opcode::kXor, "x");
  g.add_edge(p1, x);
  g.add_edge(p2, x);
  const VirtualCandidate c = group(g, x, {1, 1, 0});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c.sw_seq_cycles, 3.0);    // sequential machine view
}

TEST_F(GroupingTest, IoViolationFlagged) {
  // 5 independent parents each with 1 extern input feeding x: IN = 6 > 4.
  dfg::Graph g;
  std::vector<int> prev;
  const auto x = g.add_node(isa::Opcode::kXor, "x");
  prev.push_back(0);
  for (int i = 0; i < 5; ++i) {
    const auto p = g.add_node(isa::Opcode::kAnd, testing::indexed_name("p", i));
    g.set_extern_inputs(p, 2);
    g.add_edge(p, x);
    prev.push_back(1);
  }
  const VirtualCandidate c = group(g, x, prev);
  EXPECT_EQ(c.size(), 6u);
  EXPECT_GT(c.in_count, format_.max_ise_inputs());
  EXPECT_TRUE(c.io_violation);
}

TEST_F(GroupingTest, ConvexViolationFlagged) {
  // Chain 0 -> 1 -> 2 where 0 and 2 chose hardware but 1 is a load (never
  // hardware-capable): grouping from 0 produces {0, 2}, non-convex.
  dfg::Graph g;
  const auto a = g.add_node(isa::Opcode::kAnd, "a");
  const auto l = g.add_node(isa::Opcode::kLw, "l");
  const auto b = g.add_node(isa::Opcode::kAnd, "b");
  g.add_edge(a, l);
  g.add_edge(l, b);
  g.add_edge(a, b);  // direct edge so grouping connects a and b
  const VirtualCandidate c = group(g, a, {0, 0, 1});
  EXPECT_TRUE(c.members.contains(b));
  EXPECT_TRUE(c.convex_violation);
}

// ---------------------------------------------------------------------------
// Equivalence property: the per-iteration grouping (components labelled and
// analysed once, vS_x shared or joined word-level) must reproduce a plain
// per-node search exactly.

void expect_same(const VirtualCandidate& got, const VirtualCandidate& want,
                 const std::string& where) {
  EXPECT_EQ(got.members, want.members) << where;
  EXPECT_EQ(got.in_count, want.in_count) << where;
  EXPECT_EQ(got.out_count, want.out_count) << where;
  EXPECT_EQ(got.io_violation, want.io_violation) << where;
  EXPECT_EQ(got.convex_violation, want.convex_violation) << where;
  EXPECT_EQ(got.timing_violation, want.timing_violation) << where;
  EXPECT_EQ(got.sw_seq_cycles, want.sw_seq_cycles) << where;
  ASSERT_EQ(got.per_option.size(), want.per_option.size()) << where;
  for (std::size_t j = 0; j < want.per_option.size(); ++j) {
    const auto& g = got.per_option[j];
    const auto& w = want.per_option[j];
    EXPECT_EQ(g.valid, w.valid) << where << " option " << j;
    EXPECT_EQ(g.depth_ns, w.depth_ns) << where << " option " << j;
    EXPECT_EQ(g.cycles, w.cycles) << where << " option " << j;
    EXPECT_EQ(g.area, w.area) << where << " option " << j;
  }
}

TEST(GroupingEquivalence, MatchesPerNodeReferenceOnRandomBlocks) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  // One scratch across every trial: graphs shrink and grow between trials
  // exactly as between exploration rounds and repeats.
  GroupingScratch scratch;
  Rng rng(2024);
  // How often each branch was exercised; the property is vacuous without.
  int joined = 0;
  int io = 0;
  int convex = 0;
  int timing = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.next_below(70);
    const double edge_prob = 0.2 + 0.7 * rng.next_double();
    const dfg::Graph g = testing::random_block(n, rng, edge_prob);
    const hw::GPlus gplus(g, lib);
    const dfg::Reachability reach(g);
    isa::IsaFormat format;
    format.reg_file = {static_cast<int>(2 + rng.next_below(6)),
                       static_cast<int>(1 + rng.next_below(3))};
    format.max_ise_latency_cycles = static_cast<int>(rng.next_below(3));
    const HardwareGrouping grouping(gplus, format, reach);

    for (int draw = 0; draw < 4; ++draw) {
      // Mixed picks: unchosen (-1), software, and random hardware options.
      const double p_software = 0.6 * rng.next_double();
      std::vector<int> chosen(n);
      for (dfg::NodeId v = 0; v < n; ++v) {
        const std::size_t options = gplus.num_options(v);
        const double r = rng.next_double();
        if (r < 0.1) {
          chosen[v] = -1;
        } else if (r < 0.1 + p_software || options == 1) {
          chosen[v] = 0;
        } else {
          chosen[v] = static_cast<int>(
              1 + rng.next_below(static_cast<std::uint32_t>(options - 1)));
        }
      }
      grouping.label_components(chosen, scratch);
      for (dfg::NodeId x = 0; x < n; ++x) {
        if (!gplus.hardware_capable(x)) continue;
        const std::string where = "trial " + std::to_string(trial) +
                                  " draw " + std::to_string(draw) + " x " +
                                  std::to_string(x);
        const VirtualCandidate& got = grouping.group(x, scratch);
        expect_same(got,
                    testing::reference_group(gplus, format, reach, x, chosen),
                    where);
        const bool x_hardware = chosen[x] > 0;
        joined += !x_hardware && got.size() > 1;
        io += got.io_violation;
        convex += got.convex_violation;
        timing += got.timing_violation;
      }
    }
  }
  EXPECT_GT(joined, 100);
  EXPECT_GT(io, 100);
  EXPECT_GT(convex, 100);
  EXPECT_GT(timing, 100);
}

}  // namespace
}  // namespace isex::core
