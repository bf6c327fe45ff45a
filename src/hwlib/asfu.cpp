#include "hwlib/asfu.hpp"

#include "util/assert.hpp"

namespace isex::hw {

AsfuEvaluation evaluate_asfu(const GPlus& gplus, const dfg::NodeSet& members,
                             std::span<const int> chosen_option,
                             const ClockSpec& clock) {
  const dfg::Graph& graph = gplus.graph();
  ISEX_ASSERT(members.universe() == graph.num_nodes());
  ISEX_ASSERT(chosen_option.size() == graph.num_nodes());

  const auto entry = [&](dfg::NodeId v) {
    return gplus.offset(v) + static_cast<std::size_t>(chosen_option[v]);
  };
  AsfuEvaluation eval;
  members.for_each([&](dfg::NodeId v) {
    const int o = chosen_option[v];
    ISEX_ASSERT_MSG(o > 0, "ISE member must use a hardware option");
    ISEX_ASSERT(static_cast<std::size_t>(o) < gplus.num_options(v));
    eval.area += gplus.areas()[entry(v)];
  });

  eval.depth_ns = dfg::induced_critical_path(
      graph, gplus.topological_order(), members,
      [&](dfg::NodeId v) { return gplus.delays()[entry(v)]; });
  eval.latency_cycles = clock.cycles_for(eval.depth_ns);
  return eval;
}

}  // namespace isex::hw
