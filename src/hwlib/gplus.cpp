#include "hwlib/gplus.hpp"

#include <algorithm>

namespace isex::hw {

GPlus::GPlus(const dfg::Graph& graph, const HwLibrary& library)
    : graph_(&graph), topo_(graph.topological_order()) {
  const std::size_t n = graph.num_nodes();
  // Node v's row: its software option, then the library's hardware cells.
  const auto push_row = [&](double software_cycles,
                            std::span<const ImplOption> cells) {
    delays_.push_back(software_cycles);
    areas_.push_back(0.0);
    for (const ImplOption& cell : cells) {
      delays_.push_back(cell.delay);
      areas_.push_back(cell.area);
    }
    offsets_.push_back(static_cast<std::uint32_t>(delays_.size()));
  };
  offsets_.reserve(n + 1);
  delays_.reserve(n);
  areas_.reserve(n);
  std::vector<int> values;
  for (dfg::NodeId v = 0; v < n; ++v) {
    const dfg::Node& node = graph.node(v);
    if (node.is_ise) {
      // A committed ISE executes as one (possibly multi-cycle) instruction;
      // it cannot be re-absorbed during exploration (merging handles reuse).
      push_row(static_cast<double>(node.ise.latency_cycles), {});
    } else if (isa::ise_eligible(node.opcode) &&
               library.has_hardware(node.opcode)) {
      push_row(1.0, library.hardware_options(node.opcode));
    } else {
      // Memory ops annotated by the cache model charge their modeled latency
      // here too, so merit's software baseline and the critical path agree
      // with what the scheduler will charge.
      push_row(
          node.mem_latency > 0 ? static_cast<double>(node.mem_latency) : 1.0,
          {});
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
