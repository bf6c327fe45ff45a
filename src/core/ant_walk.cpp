#include "core/ant_walk.hpp"

#include <algorithm>
#include <cmath>

#include "isa/opcode.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace isex::core {
namespace {

/// Ledger view over the scratch-owned per-cycle rows.  Construction
/// zero-fills the retained rows instead of deallocating them.
class Ledger {
 public:
  Ledger(const sched::MachineConfig& cfg, std::vector<LedgerRow>& rows)
      : cfg_(&cfg), rows_(&rows) {
    std::fill(rows.begin(), rows.end(), LedgerRow{});
  }

  LedgerRow& at(int cycle) {
    ISEX_ASSERT(cycle >= 0);
    if (static_cast<std::size_t>(cycle) >= rows_->size())
      rows_->resize(static_cast<std::size_t>(cycle) + 1);
    return (*rows_)[static_cast<std::size_t>(cycle)];
  }

  bool fits(int cycle, int issue, int reads, int writes, int fu_class) {
    const LedgerRow& r = at(cycle);
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
    LedgerRow& r = at(cycle);
    r.issue += issue;
    r.reads += reads;
    r.writes += writes;
    if (fu_class >= 0) r.fu[static_cast<std::size_t>(fu_class)] += 1;
  }

 private:
  const sched::MachineConfig* cfg_;
  std::vector<LedgerRow>* rows_;
};

int software_cycles(const hw::IoTable& table, std::size_t option) {
  return std::max(1, static_cast<int>(std::ceil(table.option(option).delay)));
}

}  // namespace

int WalkResult::finish_of(dfg::NodeId v) const {
  ISEX_ASSERT(v < finish_.size());
  if (group_id[v] >= 0) {
    const GroupState& g = groups[static_cast<std::size_t>(group_id[v])];
    return g.start + g.cycles;
  }
  return finish_[v];
}

void walk_critical_nodes(const dfg::Graph& graph, const WalkResult& walk,
                         dfg::NodeSet& critical) {
  // The closure is a unique least fixpoint, so rule order is free; groups
  // absorb word-at-a-time (NodeSet::intersects skips untouched groups,
  // insert_all unions whole words) and the tight-producer rule folds its
  // contains/insert pair into one test_and_set word access.
  const std::size_t n = graph.num_nodes();
  critical.resize(n);
  for (dfg::NodeId v = 0; v < n; ++v)
    if (walk.finish_of(v) == walk.tet) critical.insert(v);

  bool changed = true;
  while (changed) {
    changed = false;
    for (const GroupState& group : walk.groups) {
      if (group.members.intersects(critical) &&
          critical.insert_all(group.members))
        changed = true;
    }
    // for_each snapshots one word at a time, so members inserted into the
    // current or an earlier word surface on the next sweep — exactly what
    // the fixpoint loop is for.
    critical.for_each([&](dfg::NodeId v) {
      for (const dfg::NodeId p : graph.preds(v)) {
        if (walk.finish_of(p) == walk.slot[v] && critical.test_and_set(p))
          changed = true;
      }
    });
  }
}

AntWalk::AntWalk(const hw::GPlus& gplus, const sched::MachineConfig& machine,
                 const ExplorerParams& params, hw::ClockSpec clock)
    : gplus_(&gplus),
      machine_(machine),
      params_(&params),
      clock_(clock),
      walks_metric_(&trace::MetricsRegistry::global().counter(
          "isex_ant_walks_total")),
      tet_metric_(&trace::MetricsRegistry::global().histogram(
          "isex_ant_walk_tet_cycles", {4, 8, 16, 32, 64, 128, 256, 512})) {}

const WalkResult& AntWalk::run(const PheromoneState& pheromone,
                               std::span<const double> sp_score, Rng& rng,
                               WalkScratch& s) const {
  const trace::Span span("ant_walk");
  const dfg::Graph& graph = gplus_->graph();
  const std::size_t n = graph.num_nodes();
  ISEX_ASSERT(sp_score.size() == n);

  WalkResult& result = s.result;
  // Recycle the previous walk's group storage: the NodeSet word buffers move
  // into the stash and come back via open_group(), so growing a group never
  // re-allocates once the scratch has seen the walk's high-water sizes.
  for (GroupState& g : result.groups) s.group_stash.push_back(std::move(g));
  result.groups.clear();
  result.chosen.assign(n, -1);
  result.slot.assign(n, -1);
  result.order.assign(n, -1);
  result.group_id.assign(n, -1);
  result.finish_.assign(n, 0);
  result.tet = 0;
  s.steps = 0;
  s.entry_shifts = 0;
  s.max_entries = 0;
  if (n == 0) return result;

  Ledger ledger(machine_, s.ledger_rows);
  s.hw_depth.assign(n, 0.0);
  std::vector<double>& hw_depth = s.hw_depth;

  s.unresolved.resize(n);
  for (dfg::NodeId v = 0; v < n; ++v)
    s.unresolved[v] = static_cast<int>(graph.preds(v).size());

  // Per-walk weight table: trail and merit are const for the duration of a
  // walk, so the Eq. 1 numerator + λ·SP of every (node, option) pair is
  // computed once here — O(n × options) — instead of for every ready entry
  // on every step (O(steps × ready × options)).
  s.weight_offset.resize(n);
  std::int32_t total_options = 0;
  for (dfg::NodeId v = 0; v < n; ++v) {
    s.weight_offset[v] = total_options;
    total_options += static_cast<std::int32_t>(gplus_->table(v).size());
  }
  s.base_weight.resize(static_cast<std::size_t>(total_options));
  for (dfg::NodeId v = 0; v < n; ++v) {
    const std::span<double> row(
        s.base_weight.data() + s.weight_offset[v], gplus_->table(v).size());
    pheromone.weights_into(v, row);
    const double sp_bias = params_->lambda * sp_score[v];
    for (double& w : row) w += sp_bias;
  }

  // Incremental Ready-Matrix: entries append when a node becomes ready and
  // compact out in place when it schedules.  Surviving entries keep their
  // relative order, so rng.weighted_pick sees exactly the weight sequence a
  // per-step rebuild over the ready list would produce.
  s.entries.clear();
  s.weights.clear();
  s.entry_pos.assign(n, -1);
  auto enter_ready = [&](dfg::NodeId v) {
    s.entry_pos[v] = static_cast<std::int32_t>(s.entries.size());
    const std::size_t options = gplus_->table(v).size();
    const double* row = s.base_weight.data() + s.weight_offset[v];
    for (std::size_t o = 0; o < options; ++o) {
      s.entries.emplace_back(v, static_cast<int>(o));
      s.weights.push_back(row[o]);
    }
    s.max_entries =
        std::max(s.max_entries, static_cast<std::uint64_t>(s.entries.size()));
  };
  auto leave_ready = [&](dfg::NodeId v) {
    const auto pos = static_cast<std::size_t>(s.entry_pos[v]);
    const std::size_t len = gplus_->table(v).size();
    s.entries.erase(s.entries.begin() + static_cast<std::ptrdiff_t>(pos),
                    s.entries.begin() + static_cast<std::ptrdiff_t>(pos + len));
    s.weights.erase(s.weights.begin() + static_cast<std::ptrdiff_t>(pos),
                    s.weights.begin() + static_cast<std::ptrdiff_t>(pos + len));
    s.entry_pos[v] = -1;
    s.entry_shifts += s.entries.size() - pos;
    // Re-anchor the first-entry index of every node whose entries shifted.
    dfg::NodeId prev = dfg::kInvalidNode;
    for (std::size_t i = pos; i < s.entries.size(); ++i) {
      const dfg::NodeId u = s.entries[i].first;
      if (u != prev) {
        s.entry_pos[u] = static_cast<std::int32_t>(i);
        prev = u;
      }
    }
  };
  for (dfg::NodeId v = 0; v < n; ++v)
    if (s.unresolved[v] == 0) enter_ready(v);

  for (std::vector<int>& ids : s.group_extern_ids) ids.clear();

  auto finish_of = [&](dfg::NodeId v) { return result.finish_of(v); };

  // Pooled group construction: reuses a stashed GroupState (and its NodeSet
  // capacity) when one is available.
  auto open_group = [&]() -> GroupState {
    GroupState g;
    if (!s.group_stash.empty()) {
      g = std::move(s.group_stash.back());
      s.group_stash.pop_back();
    }
    g.members.resize(n);  // re-zeroes in place, keeps capacity
    g.start = 0;
    g.depth_ns = 0.0;
    g.cycles = 1;
    g.reads = 0;
    g.writes = 0;
    return g;
  };

  auto extern_ids_bucket = [&](int gid) -> std::vector<int>& {
    while (s.group_extern_ids.size() <= static_cast<std::size_t>(gid))
      s.group_extern_ids.emplace_back();
    return s.group_extern_ids[static_cast<std::size_t>(gid)];
  };

  // Attempts to pack `v` (with hardware option `opt`) into group `gid`.
  // IN/OUT are maintained incrementally: the delta of adding v follows from
  // v's own edges against the membership, with no NodeSet copy and no full
  // count_inputs/count_outputs recount over the group.
  auto try_join = [&](dfg::NodeId v, std::size_t opt, int gid) -> bool {
    GroupState& g = result.groups[static_cast<std::size_t>(gid)];
    // All producers outside the group must be done before the group issues.
    for (const dfg::NodeId p : graph.preds(v)) {
      if (!g.members.contains(p) && finish_of(p) > g.start) return false;
    }
    std::vector<int>& gext = extern_ids_bucket(gid);
    // ΔIN: predecessors of v that become new outside producers…
    int dr = 0;
    for (const dfg::NodeId p : graph.preds(v)) {
      if (g.members.contains(p)) continue;
      bool already_feeds = false;
      for (const dfg::NodeId c : graph.succs(p)) {
        if (g.members.contains(c)) {
          already_feeds = true;
          break;
        }
      }
      if (!already_feeds) ++dr;
    }
    // …plus v's live-in values the group does not consume yet…
    const std::span<const int> ids = graph.extern_input_ids(v);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (std::find(gext.begin(), gext.end(), ids[i]) != gext.end()) continue;
      if (std::find(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(i),
                    ids[i]) !=
          ids.begin() + static_cast<std::ptrdiff_t>(i))
        continue;  // duplicate among v's own operands
      ++dr;
    }
    // …minus v itself if it previously fed the group from outside.
    for (const dfg::NodeId c : graph.succs(v)) {
      if (g.members.contains(c)) {
        --dr;
        break;
      }
    }
    // ΔOUT: +1 if v's value escapes the grown group; -1 for each member
    // predecessor whose value stops escaping once v is inside.
    int dw = 0;
    bool v_escapes = graph.live_out(v);
    if (!v_escapes) {
      for (const dfg::NodeId c : graph.succs(v)) {
        if (!g.members.contains(c)) {
          v_escapes = true;
          break;
        }
      }
    }
    if (v_escapes) ++dw;
    for (const dfg::NodeId p : graph.preds(v)) {
      if (!g.members.contains(p) || graph.live_out(p)) continue;
      bool still_escapes = false;
      for (const dfg::NodeId c : graph.succs(p)) {
        if (c != v && !g.members.contains(c)) {
          still_escapes = true;
          break;
        }
      }
      if (!still_escapes) --dw;  // v was p's only consumer outside the group
    }
    if (!ledger.fits(g.start, 0, dr, dw, -1)) return false;

    // Commit.
    ledger.charge(g.start, 0, dr, dw, -1);
    g.members.insert(v);
    g.reads += dr;
    g.writes += dw;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (std::find(gext.begin(), gext.end(), ids[i]) == gext.end())
        gext.push_back(ids[i]);
    }
    double depth_in = 0.0;
    for (const dfg::NodeId p : graph.preds(v)) {
      if (g.members.contains(p) && p != v)
        depth_in = std::max(depth_in, hw_depth[p]);
    }
    hw_depth[v] = depth_in + gplus_->table(v).option(opt).delay;
    g.depth_ns = std::max(g.depth_ns, hw_depth[v]);
    g.cycles = clock_.cycles_for(g.depth_ns);
    result.group_id[v] = gid;
    result.slot[v] = g.start;
    return true;
  };

  std::size_t scheduled = 0;
  int pick_index = 0;
  while (scheduled < n) {
    ISEX_ASSERT_MSG(!s.entries.empty(), "ready list empty before completion");
    const std::size_t pick = rng.weighted_pick(s.weights);
    const auto [v, opt_i] = s.entries[pick];
    const auto opt = static_cast<std::size_t>(opt_i);
    const hw::IoTable& table = gplus_->table(v);

    if (table.is_hardware(opt)) {
      // Fig 4.3.4: prefer the group of the parent scheduled latest (LP).
      s.parent_groups.clear();
      for (const dfg::NodeId p : graph.preds(v)) {
        const int gid = result.group_id[p];
        if (gid >= 0) s.parent_groups.emplace_back(finish_of(p), gid);
      }
      std::sort(s.parent_groups.begin(), s.parent_groups.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      bool placed = false;
      int last_gid = -1;
      for (const auto& [fin, gid] : s.parent_groups) {
        if (gid == last_gid) continue;
        last_gid = gid;
        if (try_join(v, opt, gid)) {
          placed = true;
          break;
        }
      }
      if (!placed) {
        // Open a fresh single-member group at the earliest feasible slot.
        int avail = 0;
        for (const dfg::NodeId p : graph.preds(v))
          avail = std::max(avail, finish_of(p));
        // IN({v})/OUT({v}) straight from v's edges: every predecessor is an
        // outside producer, plus v's distinct live-in values.
        int reads = static_cast<int>(graph.preds(v).size());
        const std::span<const int> ids = graph.extern_input_ids(v);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          if (std::find(ids.begin(),
                        ids.begin() + static_cast<std::ptrdiff_t>(i),
                        ids[i]) ==
              ids.begin() + static_cast<std::ptrdiff_t>(i))
            ++reads;
        }
        const int writes =
            (graph.live_out(v) || !graph.succs(v).empty()) ? 1 : 0;
        int cts = avail;
        while (!ledger.fits(cts, 1, reads, writes, -1)) ++cts;
        ledger.charge(cts, 1, reads, writes, -1);
        const int gid = static_cast<int>(result.groups.size());
        GroupState g = open_group();
        g.members.insert(v);
        g.start = cts;
        hw_depth[v] = table.option(opt).delay;
        g.depth_ns = hw_depth[v];
        g.cycles = clock_.cycles_for(g.depth_ns);
        g.reads = reads;
        g.writes = writes;
        std::vector<int>& gext = extern_ids_bucket(gid);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          if (std::find(gext.begin(), gext.end(), ids[i]) == gext.end())
            gext.push_back(ids[i]);
        }
        result.group_id[v] = gid;
        result.slot[v] = cts;
        result.groups.push_back(std::move(g));
      }
    } else {
      // Fig 4.3.3: software list placement.
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
      result.finish_[v] = cts + software_cycles(table, opt);
    }

    result.chosen[v] = opt_i;
    result.order[v] = pick_index++;
    ++scheduled;
    ++s.steps;
    leave_ready(v);
    for (const dfg::NodeId su : graph.succs(v)) {
      if (--s.unresolved[su] == 0) enter_ready(su);
    }
  }

  int tet = 0;
  for (dfg::NodeId v = 0; v < n; ++v) tet = std::max(tet, finish_of(v));
  result.tet = tet;
  walks_metric_->inc();
  tet_metric_->observe(tet);
  return result;
}

WalkResult AntWalk::run(const PheromoneState& pheromone,
                        std::span<const double> sp_score, Rng& rng) const {
  WalkScratch scratch;
  run(pheromone, sp_score, rng, scratch);
  return std::move(scratch.result);
}

}  // namespace isex::core
