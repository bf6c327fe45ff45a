// G+ — a DFG annotated with per-operation IO tables (Fig 4.1.1), laid out
// flat once per exploration round.
//
// Every structure of the ACO loop is indexed by the same (operation, option)
// pairs, edges and live-in values: the Ready-Matrix (Fig 4.3.2), the trail
// and merit matrices of Eqs. 1–3, and Hardware-Grouping's IN/OUT counts
// (Fig 4.3.6).  GPlus is their one layout, and its constructor is the only
// code that computes it:
//  * every (operation, option) entry in one contiguous array, node v's at
//    [offset(v), offset(v + 1)); table(v) views them as v's IO table.  ISE
//    supernodes (from earlier rounds) and ineligible operations get a
//    software-only table, so the explorer can treat every node uniformly.
//    The constructor asserts the layout every hot loop relies on: option 0
//    is the node's only software option and every other option is
//    hardware, so "option o is hardware" is `o > 0`;
//  * each entry's delay and area again in two flat arrays (delays(),
//    areas()), so the ACO loop reads 8-byte values instead of ImplOption
//    records;
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
#include "hwlib/impl_option.hpp"
#include "util/assert.hpp"

namespace isex::hw {

class GPlus {
 public:
  GPlus(const dfg::Graph& graph, const HwLibrary& library);

  const dfg::Graph& graph() const { return *graph_; }
  std::size_t num_nodes() const { return options_.begin.size() - 1; }

  /// Number of (operation, option) entries.
  std::size_t num_entries() const { return options_.items.size(); }
  /// Flat index of node v's option 0; offset(num_nodes()) == num_entries().
  std::size_t offset(dfg::NodeId v) const {
    ISEX_ASSERT(v <= num_nodes());
    return options_.begin[v];
  }
  std::size_t num_options(dfg::NodeId v) const {
    return options_.row(v).size();
  }
  /// The (operation, option) entry at flat index `entry`.
  const ImplOption& entry(std::size_t entry) const {
    ISEX_ASSERT(entry < options_.items.size());
    return options_.items[entry];
  }
  /// Node `id`'s IO table: its entries, indexed by option.
  IoTableView table(dfg::NodeId id) const {
    return IoTableView(options_.row(id));
  }
  /// entry(i).delay and entry(i).area for every flat index i.
  std::span<const double> delays() const { return delays_; }
  std::span<const double> areas() const { return areas_; }

  /// True when node `id` has at least one hardware option, i.e. it may be
  /// drawn into an ISE.
  bool hardware_capable(dfg::NodeId id) const { return num_options(id) > 1; }

  /// Software execution cycles of node `id` (its only software option,
  /// option 0; ISE supernodes report their committed ASFU latency).
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
    std::vector<std::uint32_t> begin{0};
    std::vector<T> items;

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
  Csr<ImplOption> options_;
  std::vector<double> delays_;
  std::vector<double> areas_;
  Csr<dfg::NodeId> preds_;
  Csr<dfg::NodeId> succs_;
  Csr<std::uint32_t> live_ins_;
  std::size_t num_live_ins_ = 0;
  std::vector<dfg::NodeId> topo_;
};

}  // namespace isex::hw
