// G+ — a DFG annotated with per-operation IO tables (Fig 4.1.1).
//
// GPlus borrows the graph (it must outlive the GPlus) and owns one IoTable
// per node.  ISE supernodes (from earlier rounds) and ineligible operations
// get a software-only table, so the explorer can treat every node uniformly.
#pragma once

#include <span>
#include <vector>

#include "dfg/graph.hpp"
#include "hwlib/hw_library.hpp"
#include "hwlib/impl_option.hpp"
#include "util/assert.hpp"

namespace isex::hw {

class GPlus {
 public:
  GPlus(const dfg::Graph& graph, const HwLibrary& library);

  const dfg::Graph& graph() const { return *graph_; }
  const IoTable& table(dfg::NodeId id) const {
    ISEX_ASSERT(id < tables_.size());
    return tables_[id];
  }

  /// True when node `id` has at least one hardware option, i.e. it may be
  /// drawn into an ISE.
  bool hardware_capable(dfg::NodeId id) const { return table(id).has_hardware(); }

  /// Software execution cycles of node `id` (its first software option;
  /// ISE supernodes report their committed ASFU latency).
  double software_cycles(dfg::NodeId id) const {
    return table(id).option(table(id).first_software()).delay;
  }

  /// The graph's topological order, computed once at construction so every
  /// datapath-depth query of the round reuses it.
  std::span<const dfg::NodeId> topological_order() const { return topo_; }

 private:
  const dfg::Graph* graph_;
  std::vector<IoTable> tables_;
  std::vector<dfg::NodeId> topo_;
};

}  // namespace isex::hw
