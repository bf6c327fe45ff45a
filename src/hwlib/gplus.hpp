// G+ — a DFG annotated with per-operation IO tables (Fig 4.1.1), laid out
// flat once per exploration round.
//
// Every structure of the ACO loop is indexed by the same (operation, option)
// pairs, edges and live-in values: the Ready-Matrix (Fig 4.3.2), the trail
// and merit matrices of Eqs. 1–3, and Hardware-Grouping's IN/OUT counts
// (Fig 4.3.6).  GPlus is their one layout, and its constructor is the only
// code that computes it:
//  * every (operation, option) entry's delay and area in two flat arrays,
//    delays() and areas(); node v's options are the flat indices
//    [offset(v), offset(v + 1)).  Option 0 is the software option, which
//    the constructor writes itself: 1 cycle, a memory op's modeled latency
//    or an ISE supernode's latency, with area 0.  Options 1..k−1 are the
//    library's hardware cells in order (delay in ns, area in µm²), so
//    "option o is hardware" is `o > 0`.  ISE supernodes (from earlier
//    rounds) and ineligible operations get the software option only, so
//    the explorer can treat every node uniformly;
//  * predecessor and successor lists as CSR, in Graph's order;
//  * each node's live-in values renumbered densely into [0, num_live_ins()):
//    two dense ids are equal exactly when the Graph::extern_input_ids they
//    stand for are, so a set of them is a bitset.
// GPlus borrows the graph, which must outlive it.  The pheromone state, the
// ant walk and Hardware-Grouping refer to their G+, which must outlive them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dfg/graph.hpp"
#include "hwlib/hw_library.hpp"
#include "util/assert.hpp"

namespace isex::hw {

class GPlus {
 public:
  GPlus(const dfg::Graph& graph, const HwLibrary& library);

  const dfg::Graph& graph() const { return *graph_; }
  std::size_t num_nodes() const { return offsets_.size() - 1; }

  /// Number of (operation, option) entries.
  std::size_t num_entries() const { return delays_.size(); }
  /// Flat index of node v's option 0; offset(num_nodes()) == num_entries().
  std::size_t offset(dfg::NodeId v) const {
    ISEX_ASSERT(v <= num_nodes());
    return offsets_[v];
  }
  std::size_t num_options(dfg::NodeId v) const {
    ISEX_ASSERT(v < num_nodes());
    return offsets_[v + 1] - offsets_[v];
  }
  /// Each entry's delay (software: cycles; hardware: ns) and area (µm²;
  /// software options cost none), by flat index.
  std::span<const double> delays() const { return delays_; }
  std::span<const double> areas() const { return areas_; }

  /// True when node `id` has at least one hardware option, i.e. it may be
  /// drawn into an ISE.
  bool hardware_capable(dfg::NodeId id) const { return num_options(id) > 1; }

  /// Software execution cycles of node `id` (its software option, option 0;
  /// ISE supernodes report their committed ASFU latency).
  double software_cycles(dfg::NodeId id) const {
    return delays_[offset(id)];
  }

  /// Graph::preds and Graph::succs, element for element.
  std::span<const dfg::NodeId> preds(dfg::NodeId v) const {
    return preds_.row(v);
  }
  std::span<const dfg::NodeId> succs(dfg::NodeId v) const {
    return succs_.row(v);
  }

  /// Node v's live-in values (Graph::extern_input_ids), as dense ids.
  std::span<const std::uint32_t> live_ins(dfg::NodeId v) const {
    return live_ins_.row(v);
  }
  /// Number of distinct live-in values of the graph.
  std::size_t num_live_ins() const { return num_live_ins_; }

  /// The graph's topological order, computed once at construction so every
  /// datapath-depth query of the round reuses it.
  std::span<const dfg::NodeId> topological_order() const { return topo_; }

 private:
  /// Row-compressed lists: node v's are items[begin[v], begin[v + 1]).
  template <typename T>
  struct Csr {
    std::vector<std::uint32_t> begin;
    std::vector<T> items;

    /// Opens the empty list with room for `rows` rows of `count` items in
    /// all; called once, before the first row.
    void start(std::size_t rows, std::size_t count) {
      begin.reserve(rows + 1);
      begin.push_back(0);
      items.reserve(count);
    }

    std::span<const T> row(dfg::NodeId v) const {
      ISEX_ASSERT(v + 1 < begin.size());
      return {items.data() + begin[v], begin[v + 1] - begin[v]};
    }
    template <typename Range>
    void push_row(const Range& row) {
      items.insert(items.end(), row.begin(), row.end());
      begin.push_back(static_cast<std::uint32_t>(items.size()));
    }
  };

  const dfg::Graph* graph_;
  std::vector<std::uint32_t> offsets_;
  std::vector<double> delays_;
  std::vector<double> areas_;
  Csr<dfg::NodeId> preds_;
  Csr<dfg::NodeId> succs_;
  Csr<std::uint32_t> live_ins_;
  std::size_t num_live_ins_ = 0;
  std::vector<dfg::NodeId> topo_;
};

}  // namespace isex::hw
