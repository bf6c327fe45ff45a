// Reference ant walk: the pre-optimization algorithm, kept as the oracle the
// optimized core::AntWalk is checked against (AntWalkEquivalence in
// test_ant_walk.cpp, and the identity gate of bench/perf_antwalk).
//
// Every step rebuilds the Ready-Matrix from the ready list with per-entry
// PheromoneState::weight calls and re-sums it in Rng::weighted_pick;
// try_join copies the member set and recounts IN/OUT with
// dfg::count_inputs/count_outputs; everything is read from the Graph and
// the G+ directly; and every walk allocates fresh buffers.  Parent groups
// are ordered with std::stable_sort (finish descending, ties in
// predecessor order), the order Fig 4.3.4's latest-parent rule is defined
// by.
//
// reference_critical_nodes keeps the sweep form of the walk's critical set
// (AntWalkEquivalence.CriticalSetMatchesSweepReference checks the one-pass
// core::walk_critical_nodes against it).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/ant_walk.hpp"
#include "core/explorer_params.hpp"
#include "core/pheromone.hpp"
#include "dfg/analysis.hpp"
#include "dfg/node_set.hpp"
#include "hwlib/gplus.hpp"
#include "isa/opcode.hpp"
#include "sched/machine_config.hpp"
#include "sched/schedule.hpp"
#include "util/rng.hpp"

namespace isex::testing {

struct RefCycleRes {
  int issue = 0;
  int reads = 0;
  int writes = 0;
  std::array<int, sched::kNumFuClasses> fu{};
};

class RefLedger {
 public:
  explicit RefLedger(const sched::MachineConfig& cfg) : cfg_(&cfg) {}

  RefCycleRes& at(int cycle) {
    if (static_cast<std::size_t>(cycle) >= rows_.size())
      rows_.resize(static_cast<std::size_t>(cycle) + 1);
    return rows_[static_cast<std::size_t>(cycle)];
  }

  bool fits(int cycle, int issue, int reads, int writes, int fu_class) {
    const RefCycleRes& r = at(cycle);
    if (r.issue + issue > cfg_->issue_width) return false;
    if (r.reads + reads > cfg_->reg_file.read_ports) return false;
    if (r.writes + writes > cfg_->reg_file.write_ports) return false;
    if (fu_class >= 0 &&
        r.fu[static_cast<std::size_t>(fu_class)] + 1 >
            cfg_->fu_counts[static_cast<std::size_t>(fu_class)])
      return false;
    return true;
  }

  void charge(int cycle, int issue, int reads, int writes, int fu_class) {
    RefCycleRes& r = at(cycle);
    r.issue += issue;
    r.reads += reads;
    r.writes += writes;
    if (fu_class >= 0) r.fu[static_cast<std::size_t>(fu_class)] += 1;
  }

 private:
  const sched::MachineConfig* cfg_;
  std::vector<RefCycleRes> rows_;
};

struct RefGroup {
  dfg::NodeSet members;
  int start = 0;
  double depth_ns = 0.0;
  int cycles = 1;
  int reads = 0;
  int writes = 0;
};

struct RefResult {
  std::vector<int> chosen;
  std::vector<int> slot;
  std::vector<int> order;
  std::vector<int> group_id;
  std::vector<int> finish;
  std::vector<RefGroup> groups;
  int tet = 0;

  int finish_of(dfg::NodeId v) const {
    if (group_id[v] >= 0) {
      const RefGroup& g = groups[static_cast<std::size_t>(group_id[v])];
      return g.start + g.cycles;
    }
    return finish[v];
  }
};

inline int ref_software_cycles(hw::IoTableView table, std::size_t option) {
  return std::max(1, static_cast<int>(std::ceil(table.option(option).delay)));
}

inline RefResult reference_walk(const hw::GPlus& gplus,
                                const sched::MachineConfig& machine,
                                const core::ExplorerParams& params,
                                const core::PheromoneState& pheromone,
                                std::span<const double> sp_score, Rng& rng,
                                hw::ClockSpec clock = {}) {
  const dfg::Graph& graph = gplus.graph();
  const std::size_t n = graph.num_nodes();

  RefResult result;
  result.chosen.assign(n, -1);
  result.slot.assign(n, -1);
  result.order.assign(n, -1);
  result.group_id.assign(n, -1);
  result.finish.assign(n, 0);
  if (n == 0) return result;

  RefLedger ledger(machine);
  std::vector<double> hw_depth(n, 0.0);

  std::vector<int> unresolved(n, 0);
  for (dfg::NodeId v = 0; v < n; ++v)
    unresolved[v] = static_cast<int>(graph.preds(v).size());
  std::vector<dfg::NodeId> ready;
  for (dfg::NodeId v = 0; v < n; ++v)
    if (unresolved[v] == 0) ready.push_back(v);

  std::vector<std::pair<dfg::NodeId, int>> entries;
  std::vector<double> weights;

  auto finish_of = [&](dfg::NodeId v) { return result.finish_of(v); };
  auto group_io = [&](const dfg::NodeSet& members) {
    return std::pair<int, int>{dfg::count_inputs(graph, members),
                               dfg::count_outputs(graph, members)};
  };

  auto try_join = [&](dfg::NodeId v, std::size_t opt, int gid) -> bool {
    RefGroup& g = result.groups[static_cast<std::size_t>(gid)];
    for (const dfg::NodeId p : graph.preds(v)) {
      if (!g.members.contains(p) && finish_of(p) > g.start) return false;
    }
    dfg::NodeSet grown = g.members;
    grown.insert(v);
    const auto [reads, writes] = group_io(grown);
    const int dr = reads - g.reads;
    const int dw = writes - g.writes;
    if (!ledger.fits(g.start, 0, dr, dw, -1)) return false;

    ledger.charge(g.start, 0, dr, dw, -1);
    g.members = std::move(grown);
    g.reads = reads;
    g.writes = writes;
    double depth_in = 0.0;
    for (const dfg::NodeId p : graph.preds(v)) {
      if (g.members.contains(p) && p != v)
        depth_in = std::max(depth_in, hw_depth[p]);
    }
    hw_depth[v] = depth_in + gplus.table(v).option(opt).delay;
    g.depth_ns = std::max(g.depth_ns, hw_depth[v]);
    g.cycles = clock.cycles_for(g.depth_ns);
    result.group_id[v] = gid;
    result.slot[v] = g.start;
    return true;
  };

  std::size_t scheduled = 0;
  int pick_index = 0;
  while (scheduled < n) {
    entries.clear();
    weights.clear();
    for (const dfg::NodeId v : ready) {
      const hw::IoTableView table = gplus.table(v);
      for (std::size_t o = 0; o < table.size(); ++o) {
        entries.emplace_back(v, static_cast<int>(o));
        weights.push_back(pheromone.weight(v, o) +
                          params.lambda * sp_score[v]);
      }
    }

    const std::size_t pick = rng.weighted_pick(weights);
    const auto [v, opt_i] = entries[pick];
    const auto opt = static_cast<std::size_t>(opt_i);
    const hw::IoTableView table = gplus.table(v);

    if (table.is_hardware(opt)) {
      std::vector<std::pair<int, int>> parent_groups;
      for (const dfg::NodeId p : graph.preds(v)) {
        const int gid = result.group_id[p];
        if (gid >= 0) parent_groups.emplace_back(finish_of(p), gid);
      }
      std::stable_sort(
          parent_groups.begin(), parent_groups.end(),
          [](const auto& a, const auto& b) { return a.first > b.first; });
      bool placed = false;
      int last_gid = -1;
      for (const auto& [fin, gid] : parent_groups) {
        if (gid == last_gid) continue;
        last_gid = gid;
        if (try_join(v, opt, gid)) {
          placed = true;
          break;
        }
      }
      if (!placed) {
        int avail = 0;
        for (const dfg::NodeId p : graph.preds(v))
          avail = std::max(avail, finish_of(p));
        dfg::NodeSet solo(n);
        solo.insert(v);
        const auto [reads, writes] = group_io(solo);
        int cts = avail;
        while (!ledger.fits(cts, 1, reads, writes, -1)) ++cts;
        ledger.charge(cts, 1, reads, writes, -1);
        RefGroup g;
        g.members = std::move(solo);
        g.start = cts;
        hw_depth[v] = table.option(opt).delay;
        g.depth_ns = hw_depth[v];
        g.cycles = clock.cycles_for(g.depth_ns);
        g.reads = reads;
        g.writes = writes;
        result.group_id[v] = static_cast<int>(result.groups.size());
        result.slot[v] = cts;
        result.groups.push_back(std::move(g));
      }
    } else {
      int avail = 0;
      for (const dfg::NodeId p : graph.preds(v))
        avail = std::max(avail, finish_of(p));
      const int reads = sched::read_ports_used(graph, v);
      const int writes = sched::write_ports_used(graph, v);
      const dfg::Node& node = graph.node(v);
      const int fu_class =
          node.is_ise ? -1 : static_cast<int>(isa::traits(node.opcode).fu);
      int cts = avail;
      while (!ledger.fits(cts, 1, reads, writes, fu_class)) ++cts;
      ledger.charge(cts, 1, reads, writes, fu_class);
      result.slot[v] = cts;
      result.finish[v] = cts + ref_software_cycles(table, opt);
    }

    result.chosen[v] = opt_i;
    result.order[v] = pick_index++;
    ++scheduled;
    ready.erase(std::find(ready.begin(), ready.end(), v));
    for (const dfg::NodeId s : graph.succs(v)) {
      if (--unresolved[s] == 0) ready.push_back(s);
    }
  }

  int tet = 0;
  for (dfg::NodeId v = 0; v < n; ++v) tet = std::max(tet, finish_of(v));
  result.tet = tet;
  return result;
}

/// The critical set of an ant walk by repeated sweeps: seed with the nodes
/// finishing at the makespan, then absorb every group that touches the set
/// and add every tight producer (finish == consumer's start) of every
/// member, until a whole sweep changes nothing.  Each sweep rescans the
/// set, so a chain of k tight producers costs k sweeps.
inline void reference_critical_nodes(const dfg::Graph& graph,
                                     const core::WalkResult& walk,
                                     dfg::NodeSet& critical) {
  const std::size_t n = graph.num_nodes();
  critical.resize(n);
  for (dfg::NodeId v = 0; v < n; ++v)
    if (walk.finish_of(v) == walk.tet) critical.insert(v);

  bool changed = true;
  while (changed) {
    changed = false;
    for (const core::GroupState& group : walk.groups) {
      if (group.members.intersects(critical) &&
          critical.insert_all(group.members))
        changed = true;
    }
    critical.for_each([&](dfg::NodeId v) {
      for (const dfg::NodeId p : graph.preds(v)) {
        if (walk.finish_of(p) == walk.slot[v] && critical.test_and_set(p))
          changed = true;
      }
    });
  }
}

}  // namespace isex::testing
