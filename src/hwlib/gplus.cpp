#include "hwlib/gplus.hpp"

#include <algorithm>

namespace isex::hw {

GPlus::GPlus(const dfg::Graph& graph, const HwLibrary& library)
    : graph_(&graph), topo_(graph.topological_order()) {
  const std::size_t n = graph.num_nodes();
  const auto push_software_only = [&](const char* name, double cycles) {
    const ImplOption option{ImplKind::kSoftware, name, cycles, 0.0};
    options_.push_row(std::span(&option, 1));
  };
  std::vector<int> values;
  for (dfg::NodeId v = 0; v < n; ++v) {
    const dfg::Node& node = graph.node(v);
    if (node.is_ise) {
      // A committed ISE executes as one (possibly multi-cycle) instruction;
      // it cannot be re-absorbed during exploration (merging handles reuse).
      push_software_only("ISE", static_cast<double>(node.ise.latency_cycles));
    } else if (isa::ise_eligible(node.opcode) &&
               library.has_hardware(node.opcode)) {
      options_.push_row(library.make_io_table(node.opcode).options());
    } else {
      // Memory ops annotated by the cache model charge their modeled latency
      // here too, so merit's software baseline and the critical path agree
      // with what the scheduler will charge.
      const double sw_cycles =
          node.mem_latency > 0 ? static_cast<double>(node.mem_latency) : 1.0;
      push_software_only("SW-1", sw_cycles);
    }
    preds_.push_row(graph.preds(v));
    succs_.push_row(graph.succs(v));
    const std::span<const int> ids = graph.extern_input_ids(v);
    values.insert(values.end(), ids.begin(), ids.end());
  }

  // Dense live-in ids: each value's rank among the distinct values.
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  num_live_ins_ = values.size();
  for (dfg::NodeId v = 0; v < n; ++v) {
    for (const int id : graph.extern_input_ids(v)) {
      live_ins_.items.push_back(static_cast<std::uint32_t>(
          std::lower_bound(values.begin(), values.end(), id) - values.begin()));
    }
    live_ins_.begin.push_back(
        static_cast<std::uint32_t>(live_ins_.items.size()));
  }
}

}  // namespace isex::hw
