#include "sched/schedule.hpp"

#include "isa/opcode.hpp"

namespace isex::sched {

bool respects_dependences(const dfg::Graph& graph, const Schedule& schedule) {
  if (schedule.slot.size() != graph.num_nodes()) return false;
  for (dfg::NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const dfg::NodeId v : graph.succs(u)) {
      if (schedule.slot[v] < schedule.slot[u] + node_latency(graph, u))
        return false;
    }
  }
  return true;
}

}  // namespace isex::sched
