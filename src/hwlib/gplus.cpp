#include "hwlib/gplus.hpp"

namespace isex::hw {

GPlus::GPlus(const dfg::Graph& graph, const HwLibrary& library)
    : graph_(&graph), topo_(graph.topological_order()) {
  tables_.reserve(graph.num_nodes());
  for (dfg::NodeId v = 0; v < graph.num_nodes(); ++v) {
    const dfg::Node& n = graph.node(v);
    if (n.is_ise) {
      // A committed ISE executes as one (possibly multi-cycle) instruction;
      // it cannot be re-absorbed during exploration (merging handles reuse).
      tables_.emplace_back(std::vector<ImplOption>{
          {ImplKind::kSoftware, "ISE", static_cast<double>(n.ise.latency_cycles),
           0.0}});
    } else if (isa::ise_eligible(n.opcode) && library.has_hardware(n.opcode)) {
      tables_.push_back(library.make_io_table(n.opcode));
    } else {
      // Memory ops annotated by the cache model charge their modeled latency
      // here too, so merit's software baseline and the critical path agree
      // with what the scheduler will charge.
      const double sw_cycles =
          n.mem_latency > 0 ? static_cast<double>(n.mem_latency) : 1.0;
      tables_.emplace_back(
          std::vector<ImplOption>{{ImplKind::kSoftware, "SW-1", sw_cycles, 0.0}});
    }
  }
}

}  // namespace isex::hw
