#include "hwlib/asfu.hpp"

#include "util/assert.hpp"

namespace isex::hw {

AsfuEvaluation evaluate_asfu(const GPlus& gplus, const dfg::NodeSet& members,
                             std::span<const int> chosen_option,
                             const ClockSpec& clock) {
  const dfg::Graph& graph = gplus.graph();
  ISEX_ASSERT(members.universe() == graph.num_nodes());
  ISEX_ASSERT(chosen_option.size() == graph.num_nodes());

  AsfuEvaluation eval;
  members.for_each([&](dfg::NodeId v) {
    const IoTableView table = gplus.table(v);
    const auto idx = static_cast<std::size_t>(chosen_option[v]);
    ISEX_ASSERT_MSG(table.is_hardware(idx),
                    "ISE member must use a hardware option");
    eval.area += table.option(idx).area;
  });

  eval.depth_ns = dfg::induced_critical_path(
      graph, gplus.topological_order(), members, [&](dfg::NodeId v) {
        return gplus.table(v).option(static_cast<std::size_t>(chosen_option[v]))
            .delay;
      });
  eval.latency_cycles = clock.cycles_for(eval.depth_ns);
  return eval;
}

}  // namespace isex::hw
