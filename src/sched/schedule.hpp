// Schedule result container and schedule-derived analyses.
#pragma once

#include <algorithm>
#include <vector>

#include "dfg/graph.hpp"
#include "dfg/node_set.hpp"
#include "isa/opcode.hpp"

namespace isex::sched {

/// Cycle-accurate placement of every node of one DFG.
struct Schedule {
  /// Issue cycle per node (0-based).
  std::vector<int> slot;
  /// Total cycles until the last result is available (makespan).
  int cycles = 0;
};

/// Per-node latency in cycles used by the scheduler: 1 for regular PISA
/// operations (paper §5.1), the committed ASFU latency for ISE supernodes,
/// and — when the memory-hierarchy model annotated the block
/// (mem::annotate_graph) — the modeled load/store latency.  An unannotated
/// node (mem_latency == 0) keeps the legacy fixed cost, so the null cache
/// model reproduces historic schedules bit-for-bit.  Templated over the
/// graph type so dfg::Graph and dfg::CollapsedView (the copy-free candidate
/// overlay) share one definition.
template <typename G>
int node_latency(const G& graph, dfg::NodeId v) {
  // const auto& also binds CollapsedView's by-value NodeView (lifetime
  // extension) without copying Graph's string-carrying Node.
  const auto& n = graph.node(v);
  if (n.is_ise) return n.ise.latency_cycles;
  return n.mem_latency > 0 ? n.mem_latency : 1;
}

/// Register read/write ports a node consumes in its issue cycle.
template <typename G>
int read_ports_used(const G& graph, dfg::NodeId v) {
  const auto& n = graph.node(v);
  if (n.is_ise) return n.ise.num_inputs;
  // Register sources: in-block producer edges plus live-in operands, capped
  // by the ISA's operand count for the opcode.
  const int operands =
      static_cast<int>(graph.preds(v).size()) + graph.extern_inputs(v);
  return std::min(operands, static_cast<int>(isa::traits(n.opcode).num_srcs));
}

template <typename G>
int write_ports_used(const G& graph, dfg::NodeId v) {
  const auto& n = graph.node(v);
  if (n.is_ise) return n.ise.num_outputs;
  return isa::traits(n.opcode).has_dst ? 1 : 0;
}

/// Verifies dependence correctness: every edge (u, v) has
/// slot[v] >= slot[u] + latency(u).  Used by tests and assertions.
bool respects_dependences(const dfg::Graph& graph, const Schedule& schedule);

}  // namespace isex::sched
