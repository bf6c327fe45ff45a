#include "dfg/collapsed_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dfg/analysis.hpp"
#include "dfg/graph.hpp"
#include "runtime/hash.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/machine_config.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace isex::dfg {
namespace {

// A window of consecutive positions in a topological order is always convex:
// every edge goes forward in topo position, so a path leaving the window
// cannot re-enter it.  That makes topo windows a cheap exhaustive-ish source
// of legal collapse member sets over random DAGs.
NodeSet topo_window(const Graph& g, const std::vector<NodeId>& topo,
                    std::size_t start, std::size_t len) {
  NodeSet s(g.num_nodes());
  for (std::size_t i = start; i < start + len && i < topo.size(); ++i)
    s.insert(topo[i]);
  return s;
}

IseInfo window_info(const Graph& g, const NodeSet& s) {
  IseInfo info;
  info.latency_cycles = 2;
  info.area = 12.5;
  info.num_inputs = count_inputs(g, s);
  info.num_outputs = count_outputs(g, s);
  return info;
}

std::vector<NodeId> sorted(std::span<const NodeId> xs) {
  std::vector<NodeId> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}

// The view must reproduce exactly the structure Graph::collapse materializes,
// field by field, for every convex window of every random DAG — same node
// numbering, same deduplicated edge sets, same payloads, same live-in counts.
TEST(CollapsedView, MatchesCollapseStructureOnRandomDags) {
  Rng rng(2026);
  CollapsedView view;  // reused across every candidate, like the hot path
  for (int t = 0; t < 20; ++t) {
    const Graph g =
        testing::make_random_dag(12 + t % 9, rng, 0.35 + 0.06 * (t % 5));
    const std::vector<NodeId> topo = g.topological_order();
    for (std::size_t start = 0; start + 2 <= g.num_nodes(); start += 2) {
      const std::size_t len = 2 + start % 5;
      const NodeSet members = topo_window(g, topo, start, len);
      if (members.count() < 2) continue;
      const IseInfo info = window_info(g, members);
      const Graph collapsed = g.collapse(members, info);
      view.assign(g, members, info);

      ASSERT_EQ(view.num_nodes(), collapsed.num_nodes());
      for (NodeId v = 0; v < collapsed.num_nodes(); ++v) {
        const Node& cn = collapsed.node(v);
        const CollapsedView::NodeView vn = view.node(v);
        ASSERT_EQ(vn.is_ise, cn.is_ise);
        if (cn.is_ise) {
          EXPECT_EQ(v, view.super_node());
          EXPECT_EQ(vn.ise.latency_cycles, cn.ise.latency_cycles);
          EXPECT_DOUBLE_EQ(vn.ise.area, cn.ise.area);
          EXPECT_EQ(vn.ise.num_inputs, cn.ise.num_inputs);
          EXPECT_EQ(vn.ise.num_outputs, cn.ise.num_outputs);
        } else {
          EXPECT_EQ(vn.opcode, cn.opcode);
        }
        EXPECT_EQ(view.extern_inputs(v), collapsed.extern_inputs(v));
        EXPECT_EQ(sorted(view.preds(v)), sorted(collapsed.preds(v)));
        EXPECT_EQ(sorted(view.succs(v)), sorted(collapsed.succs(v)));
      }
    }
  }
}

// Collapsing a graph that already contains a committed supernode (as every
// round after the first does) must surface the *base* graph's ISE payload
// for that node, not the candidate's.
TEST(CollapsedView, PreservesPreexistingSupernodes) {
  Rng rng(5);
  const Graph g = testing::make_random_dag(14, rng, 0.5);
  const std::vector<NodeId> topo = g.topological_order();
  const NodeSet first = topo_window(g, topo, 0, 3);
  IseInfo committed = window_info(g, first);
  committed.latency_cycles = 3;
  committed.area = 99.0;
  const Graph reduced = g.collapse(first, committed);

  const std::vector<NodeId> topo2 = reduced.topological_order();
  const NodeSet second = topo_window(reduced, topo2, 1, 3);
  const IseInfo info = window_info(reduced, second);
  const Graph collapsed = reduced.collapse(second, info);
  CollapsedView view;
  view.assign(reduced, second, info);

  ASSERT_EQ(view.num_nodes(), collapsed.num_nodes());
  for (NodeId v = 0; v < collapsed.num_nodes(); ++v) {
    const Node& cn = collapsed.node(v);
    const CollapsedView::NodeView vn = view.node(v);
    ASSERT_EQ(vn.is_ise, cn.is_ise);
    if (cn.is_ise) {
      EXPECT_EQ(vn.ise.latency_cycles, cn.ise.latency_cycles);
      EXPECT_DOUBLE_EQ(vn.ise.area, cn.ise.area);
      EXPECT_EQ(vn.ise.num_inputs, cn.ise.num_inputs);
      EXPECT_EQ(vn.ise.num_outputs, cn.ise.num_outputs);
    }
    EXPECT_EQ(view.extern_inputs(v), collapsed.extern_inputs(v));
    EXPECT_EQ(sorted(view.preds(v)), sorted(collapsed.preds(v)));
    EXPECT_EQ(sorted(view.succs(v)), sorted(collapsed.succs(v)));
  }
}

// End-to-end check against the actual consumer: scheduling the view into
// reusable scratch must produce the same makespan as scheduling the
// materialized collapse, under every priority function.
TEST(CollapsedView, ScheduleLengthMatchesCollapseUnderEveryPriority) {
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  Rng rng(7);
  CollapsedView view;
  sched::SchedulerScratch scratch;  // reused across kinds and candidates
  for (int t = 0; t < 12; ++t) {
    const Graph g = testing::make_random_dag(10 + t, rng, 0.5);
    const std::vector<NodeId> topo = g.topological_order();
    for (const sched::PriorityKind kind :
         {sched::PriorityKind::kChildCount, sched::PriorityKind::kMobility,
          sched::PriorityKind::kDescendantCount}) {
      const sched::ListScheduler scheduler(machine, kind);
      for (std::size_t start = 0; start + 2 <= g.num_nodes(); start += 3) {
        const NodeSet members = topo_window(g, topo, start, 2 + start % 4);
        if (members.count() < 2) continue;
        const IseInfo info = window_info(g, members);
        // The explorer only scores port-legalized candidates; a supernode
        // demanding more ports than the machine has can never issue.
        if (info.num_inputs > machine.reg_file.read_ports ||
            info.num_outputs > machine.reg_file.write_ports)
          continue;
        view.assign(g, members, info);
        EXPECT_EQ(scheduler.cycles(view, scratch),
                  scheduler.cycles(g.collapse(members, info)));
      }
    }
  }
}

// The scratch-backed template must also agree with run() on plain graphs —
// it is the same core, but the instantiation is pinned here.
TEST(CollapsedView, ScratchCyclesMatchRunOnPlainGraphs) {
  const sched::ListScheduler scheduler(sched::MachineConfig::make(2, {4, 2}));
  Rng rng(13);
  sched::SchedulerScratch scratch;
  for (int t = 0; t < 10; ++t) {
    const Graph g = testing::make_random_dag(8 + 2 * t, rng, 0.55);
    EXPECT_EQ(scheduler.cycles(g, scratch), scheduler.run(g).cycles);
  }
}

TEST(CandidateKey, IsAPureFunctionOfTheCandidate) {
  Rng rng(3);
  const Graph g = testing::make_random_dag(12, rng, 0.5);
  const std::vector<NodeId> topo = g.topological_order();
  const NodeSet members = topo_window(g, topo, 2, 3);
  const IseInfo info = window_info(g, members);
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  const runtime::Key128 digest = runtime::graph_digest(g);

  const auto key = [&](const NodeSet& m, const IseInfo& i) {
    return runtime::candidate_key(digest, m, i, machine,
                                  sched::PriorityKind::kChildCount);
  };
  EXPECT_EQ(key(members, info), key(members, info));

  NodeSet other = members;
  other.insert(topo[6]);
  EXPECT_NE(key(members, info), key(other, info));

  IseInfo slower = info;
  slower.latency_cycles += 1;
  EXPECT_NE(key(members, info), key(members, slower));

  IseInfo cheaper = info;
  cheaper.area += 1.0;
  EXPECT_NE(key(members, info), key(members, cheaper));

  // Labels are cosmetic: a payload differing only in member_labels must
  // land on the same cache line.
  IseInfo labeled = info;
  labeled.member_labels = {"a", "b"};
  EXPECT_EQ(key(members, info), key(members, labeled));

  // Different base graph, machine, or priority — different key.
  Rng rng2(4);
  const Graph g2 = testing::make_random_dag(12, rng2, 0.5);
  EXPECT_NE(key(members, info),
            runtime::candidate_key(runtime::graph_digest(g2), members, info,
                                   machine, sched::PriorityKind::kChildCount));
  EXPECT_NE(key(members, info),
            runtime::candidate_key(digest, members, info,
                                   sched::MachineConfig::make(4, {10, 5}),
                                   sched::PriorityKind::kChildCount));
  EXPECT_NE(key(members, info),
            runtime::candidate_key(digest, members, info, machine,
                                   sched::PriorityKind::kMobility));
}

// candidate_key must not alias schedule_key: a candidate evaluation and a
// plain-graph evaluation share one eval cache, so the two key families
// live in distinct seed domains.
TEST(CandidateKey, DoesNotCollideWithScheduleKeyDomain) {
  Rng rng(9);
  const Graph g = testing::make_random_dag(12, rng, 0.5);
  const std::vector<NodeId> topo = g.topological_order();
  const NodeSet members = topo_window(g, topo, 1, 3);
  const IseInfo info = window_info(g, members);
  const auto machine = sched::MachineConfig::make(2, {6, 3});

  const runtime::Key128 cand =
      runtime::candidate_key(runtime::graph_digest(g), members, info, machine,
                             sched::PriorityKind::kChildCount);
  const runtime::Key128 sched_collapsed = runtime::schedule_key(
      g.collapse(members, info), machine, sched::PriorityKind::kChildCount);
  const runtime::Key128 sched_base =
      runtime::schedule_key(g, machine, sched::PriorityKind::kChildCount);
  EXPECT_NE(cand, sched_collapsed);
  EXPECT_NE(cand, sched_base);
}

}  // namespace
}  // namespace isex::dfg
