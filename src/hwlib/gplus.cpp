#include "hwlib/gplus.hpp"

#include <algorithm>

namespace isex::hw {

GPlus::GPlus(const dfg::Graph& graph, const HwLibrary& library)
    : graph_(&graph), topo_(graph.topological_order()) {
  const std::size_t n = graph.num_nodes();
  // Node v's hardware cells: none for an ISE supernode, an ineligible
  // operation or an opcode the library has no cell for.
  const auto cells = [&](dfg::NodeId v) -> std::span<const ImplOption> {
    const dfg::Node& node = graph.node(v);
    if (node.is_ise || !isa::ise_eligible(node.opcode)) return {};
    return library.hardware_options(node.opcode);
  };
  // Every array is sized once, from the graph's counts.
  std::size_t entries = 0;
  std::size_t live_in_refs = 0;
  for (dfg::NodeId v = 0; v < n; ++v) {
    entries += 1 + cells(v).size();
    live_in_refs += graph.extern_input_ids(v).size();
  }
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  delays_.reserve(entries);
  areas_.reserve(entries);
  preds_.start(n, graph.num_edges());
  succs_.start(n, graph.num_edges());
  live_ins_.start(n, live_in_refs);
  // Node v's row: its software option, then its hardware cells.
  const auto push_row = [&](double software_cycles,
                            std::span<const ImplOption> row_cells) {
    delays_.push_back(software_cycles);
    areas_.push_back(0.0);
    for (const ImplOption& cell : row_cells) {
      delays_.push_back(cell.delay);
      areas_.push_back(cell.area);
    }
    offsets_.push_back(static_cast<std::uint32_t>(delays_.size()));
  };
  std::vector<int> values;
  values.reserve(live_in_refs);
  for (dfg::NodeId v = 0; v < n; ++v) {
    const dfg::Node& node = graph.node(v);
    const std::span<const ImplOption> hardware = cells(v);
    if (node.is_ise) {
      // A committed ISE executes as one (possibly multi-cycle) instruction;
      // it cannot be re-absorbed during exploration (merging handles reuse).
      push_row(static_cast<double>(node.ise.latency_cycles), {});
    } else if (!hardware.empty()) {
      push_row(1.0, hardware);
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
