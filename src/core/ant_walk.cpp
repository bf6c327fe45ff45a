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
    return fits(at(cycle), issue, reads, writes, fu_class);
  }

  void charge(int cycle, int issue, int reads, int writes, int fu_class) {
    charge(at(cycle), issue, reads, writes, fu_class);
  }

  /// Charges the first cycle at or after `from` where the operation fits,
  /// and returns it.
  int place(int from, int issue, int reads, int writes, int fu_class) {
    for (int cycle = from;; ++cycle) {
      LedgerRow& r = at(cycle);
      if (fits(r, issue, reads, writes, fu_class)) {
        charge(r, issue, reads, writes, fu_class);
        return cycle;
      }
    }
  }

 private:
  bool fits(const LedgerRow& r, int issue, int reads, int writes,
            int fu_class) const {
    if (r.issue + issue > cfg_->issue_width) return false;
    if (r.reads + reads > cfg_->reg_file.read_ports) return false;
    if (r.writes + writes > cfg_->reg_file.write_ports) return false;
    if (fu_class >= 0 &&
        r.fu[static_cast<std::size_t>(fu_class)] + 1 >
            cfg_->fu_counts[static_cast<std::size_t>(fu_class)])
      return false;
    return true;
  }

  static void charge(LedgerRow& r, int issue, int reads, int writes,
                     int fu_class) {
    r.issue += issue;
    r.reads += reads;
    r.writes += writes;
    if (fu_class >= 0) r.fu[static_cast<std::size_t>(fu_class)] += 1;
  }

  const sched::MachineConfig* cfg_;
  std::vector<LedgerRow>* rows_;
};

}  // namespace

void walk_critical_nodes(const dfg::Graph& graph, const WalkResult& walk,
                         dfg::NodeSet& critical,
                         std::vector<dfg::NodeId>& worklist) {
  // The closure is a unique least fixpoint, so it is computed as a worklist
  // reachability: every node enters the set, and the worklist, once, and is
  // expanded once.  A node's first entry brings its whole group in with it
  // (a group issues as one instruction), so each group is walked once.
  const std::size_t n = graph.num_nodes();
  critical.resize(n);
  worklist.clear();
  const auto add = [&](dfg::NodeId v) {
    if (!critical.test_and_set(v)) return;
    worklist.push_back(v);
    const int gid = walk.group_id[v];
    if (gid < 0) return;
    walk.groups[static_cast<std::size_t>(gid)].members.for_each(
        [&](dfg::NodeId m) {
          if (critical.test_and_set(m)) worklist.push_back(m);
        });
  };
  for (dfg::NodeId v = 0; v < n; ++v)
    if (walk.finish_of(v) == walk.tet) add(v);
  // Tight producers: a predecessor finishing exactly when v starts.
  while (!worklist.empty()) {
    const dfg::NodeId v = worklist.back();
    worklist.pop_back();
    for (const dfg::NodeId p : graph.preds(v))
      if (walk.finish_of(p) == walk.slot[v]) add(p);
  }
}

AntWalk::AntWalk(const hw::GPlus& gplus, const sched::MachineConfig& machine,
                 const ExplorerParams& params, hw::ClockSpec clock)
    : gplus_(&gplus),
      nodes_(gplus.num_nodes()),
      machine_(machine),
      params_(&params),
      clock_(clock) {
  const dfg::Graph& graph = gplus.graph();
  for (dfg::NodeId v = 0; v < nodes_.size(); ++v) {
    NodeTerms& node = nodes_[v];
    const dfg::Node& gnode = graph.node(v);
    node.sw_reads = sched::read_ports_used(graph, v);
    node.sw_writes = sched::write_ports_used(graph, v);
    node.fu_class =
        gnode.is_ise ? -1 : static_cast<int>(isa::traits(gnode.opcode).fu);
    node.live_out = graph.live_out(v);
    // IN({v})/OUT({v}) straight from v's edges: every predecessor is an
    // outside producer, plus v's distinct live-in values.
    const std::span<const std::uint32_t> ids = gplus.live_ins(v);
    node.solo_reads = static_cast<int>(gplus.preds(v).size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (std::find(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(i),
                    ids[i]) == ids.begin() + static_cast<std::ptrdiff_t>(i))
        ++node.solo_reads;
    }
    node.solo_writes = (node.live_out || !gplus.succs(v).empty()) ? 1 : 0;
    // Option 0 is v's only software option; its latency is max(1, ⌈delay⌉).
    node.sw_cycles = std::max(
        1, static_cast<int>(std::ceil(gplus.delays()[gplus.offset(v)])));
  }
}

const WalkResult& AntWalk::run(const PheromoneState& pheromone,
                               std::span<const double> sp_score, Rng& rng,
                               WalkScratch& s) const {
  const trace::Span span("ant_walk");
  const hw::GPlus& gplus = *gplus_;
  const std::size_t n = gplus.num_nodes();
  ISEX_ASSERT(sp_score.size() == n);
  ISEX_ASSERT(&pheromone.gplus() == &gplus);

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
    s.unresolved[v] = static_cast<int>(gplus.preds(v).size());

  // Per-walk weight table: trail and merit are const for the duration of a
  // walk, so the Eq. 1 numerator + λ·SP of every (node, option) pair is
  // computed once here — O(n × options) — instead of for every ready entry
  // on every step.  Every weight a pick reads is a copy of an entry checked
  // here, so the draw itself checks nothing.
  s.base_weight.resize(gplus.num_entries());
  pheromone.weights_into(s.base_weight);
  for (dfg::NodeId v = 0; v < n; ++v) {
    const double sp_bias = params_->lambda * sp_score[v];
    const std::size_t end = gplus.offset(v + 1);
    for (std::size_t i = gplus.offset(v); i < end; ++i) {
      s.base_weight[i] += sp_bias;
      ISEX_ASSERT_MSG(s.base_weight[i] >= 0.0, "weights must be non-negative");
    }
  }

  // Incremental Ready-Matrix: entries append when a node becomes ready and
  // compact out in place when it schedules.  Surviving entries keep their
  // relative order, so the pick sees exactly the weight sequence a per-step
  // rebuild over the ready list would produce.  prefix[i] is the running
  // sum S_i = S_{i-1} + w_i from 0.0 — the same chain of additions a full
  // re-sum performs — so prefix[live - 1] is bit-identical to the total.
  // Every node enters once per walk, so the live entries never outnumber
  // G+'s entries: the arrays are sized to them once and never grow.
  const std::size_t capacity = gplus.num_entries();
  if (s.entries.size() < capacity) {
    s.entries.resize(capacity);
    s.weights.resize(capacity);
    s.prefix.resize(capacity);
  }
  WalkScratch::ReadyEntry* const entries = s.entries.data();
  double* const weights = s.weights.data();
  double* const prefix = s.prefix.data();
  std::size_t live = 0;
  auto enter_ready = [&](dfg::NodeId v) {
    const std::size_t first = gplus.offset(v);
    const std::size_t options = gplus.offset(v + 1) - first;
    ISEX_ASSERT(live + options <= capacity);
    const double* row = s.base_weight.data() + first;
    double sum = live == 0 ? 0.0 : prefix[live - 1];
    for (std::size_t o = 0; o < options; ++o, ++live) {
      entries[live] = {v, static_cast<std::int32_t>(o)};
      weights[live] = row[o];
      sum += row[o];
      prefix[live] = sum;
    }
    s.max_entries = std::max(s.max_entries, static_cast<std::uint64_t>(live));
  };
  // Removes v's entry block, which starts at `pos`: one pass moves the tail
  // down and re-sums the prefix from `pos` onward.
  auto leave_ready = [&](dfg::NodeId v, std::size_t pos) {
    const std::size_t len = gplus.num_options(v);
    ISEX_ASSERT(pos + len <= live && entries[pos].node == v &&
                entries[pos].option == 0);
    live -= len;
    double sum = pos == 0 ? 0.0 : prefix[pos - 1];
    for (std::size_t i = pos; i < live; ++i) {
      entries[i] = entries[i + len];
      const double w = weights[i + len];
      weights[i] = w;
      sum += w;
      prefix[i] = sum;
    }
    s.entry_shifts += live - pos;
  };
  for (dfg::NodeId v = 0; v < n; ++v)
    if (s.unresolved[v] == 0) enter_ready(v);

  for (std::vector<std::uint32_t>& ids : s.group_extern_ids) ids.clear();

  // A grouped node's finish is read live: its group can still grow.
  auto finish_of = [&](dfg::NodeId v) {
    const int gid = result.group_id[v];
    if (gid < 0) return result.finish_[v];
    const GroupState& g = result.groups[static_cast<std::size_t>(gid)];
    return g.start + g.cycles;
  };

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

  auto extern_ids_bucket = [&](int gid) -> std::vector<std::uint32_t>& {
    while (s.group_extern_ids.size() <= static_cast<std::size_t>(gid))
      s.group_extern_ids.emplace_back();
    return s.group_extern_ids[static_cast<std::size_t>(gid)];
  };

  // Attempts to pack `v` (with predecessors `preds` and hardware delay
  // `delay_ns`) into group `gid`.
  // IN/OUT are maintained incrementally: the delta of adding v follows from
  // v's own edges against the membership, with no NodeSet copy and no full
  // count_inputs/count_outputs recount over the group.
  auto try_join = [&](dfg::NodeId v, std::span<const dfg::NodeId> preds,
                      double delay_ns, int gid) -> bool {
    GroupState& g = result.groups[static_cast<std::size_t>(gid)];
    // All producers outside the group must be done before the group issues.
    for (const dfg::NodeId p : preds) {
      if (!g.members.contains(p) && finish_of(p) > g.start) return false;
    }
    std::vector<std::uint32_t>& gext = extern_ids_bucket(gid);
    // ΔIN: predecessors of v that become new outside producers…
    int dr = 0;
    for (const dfg::NodeId p : preds) {
      if (g.members.contains(p)) continue;
      bool already_feeds = false;
      for (const dfg::NodeId c : gplus.succs(p)) {
        if (g.members.contains(c)) {
          already_feeds = true;
          break;
        }
      }
      if (!already_feeds) ++dr;
    }
    // …plus v's live-in values the group does not consume yet…
    const std::span<const std::uint32_t> ids = gplus.live_ins(v);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (std::find(gext.begin(), gext.end(), ids[i]) != gext.end()) continue;
      if (std::find(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(i),
                    ids[i]) !=
          ids.begin() + static_cast<std::ptrdiff_t>(i))
        continue;  // duplicate among v's own operands
      ++dr;
    }
    // …minus v itself if it previously fed the group from outside.
    const std::span<const dfg::NodeId> succs = gplus.succs(v);
    for (const dfg::NodeId c : succs) {
      if (g.members.contains(c)) {
        --dr;
        break;
      }
    }
    // ΔOUT: +1 if v's value escapes the grown group; -1 for each member
    // predecessor whose value stops escaping once v is inside.
    int dw = 0;
    bool v_escapes = nodes_[v].live_out;
    if (!v_escapes) {
      for (const dfg::NodeId c : succs) {
        if (!g.members.contains(c)) {
          v_escapes = true;
          break;
        }
      }
    }
    if (v_escapes) ++dw;
    for (const dfg::NodeId p : preds) {
      if (!g.members.contains(p) || nodes_[p].live_out) continue;
      bool still_escapes = false;
      for (const dfg::NodeId c : gplus.succs(p)) {
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
    for (const dfg::NodeId p : preds) {
      if (g.members.contains(p) && p != v)
        depth_in = std::max(depth_in, hw_depth[p]);
    }
    hw_depth[v] = depth_in + delay_ns;
    g.depth_ns = std::max(g.depth_ns, hw_depth[v]);
    g.cycles = clock_.cycles_for(g.depth_ns);
    result.group_id[v] = gid;
    result.slot[v] = g.start;
    return true;
  };

  const double* const delays = gplus.delays().data();
  std::size_t scheduled = 0;
  int pick_index = 0;
  while (scheduled < n) {
    ISEX_ASSERT_MSG(live > 0, "ready list empty before completion");
    const std::size_t pick = rng.weighted_pick(
        std::span<const double>(weights, live), prefix[live - 1]);
    const auto [v, opt_i] = entries[pick];
    const NodeTerms& node = nodes_[v];
    const std::span<const dfg::NodeId> preds = gplus.preds(v);

    if (opt_i > 0) {
      // Every option but option 0 is hardware (G+'s layout).
      const double delay =
          delays[gplus.offset(v) + static_cast<std::size_t>(opt_i)];
      // Fig 4.3.4: join the group of the parent scheduled latest (LP).  A
      // join needs every outside producer finished by the group's start,
      // and a group finishes at least one cycle after it starts, so no
      // other parent group can accept v; when two groups tie for the
      // latest finish, try_join rejects the first for the other's member.
      int latest_gid = -1;
      int latest_finish = 0;
      for (const dfg::NodeId p : preds) {
        const int gid = result.group_id[p];
        if (gid >= 0 && (latest_gid < 0 || finish_of(p) > latest_finish)) {
          latest_gid = gid;
          latest_finish = finish_of(p);
        }
      }
      if (latest_gid < 0 || !try_join(v, preds, delay, latest_gid)) {
        // Open a fresh single-member group at the earliest feasible slot.
        int avail = 0;
        for (const dfg::NodeId p : preds) avail = std::max(avail, finish_of(p));
        const int cts =
            ledger.place(avail, 1, node.solo_reads, node.solo_writes, -1);
        const int gid = static_cast<int>(result.groups.size());
        GroupState g = open_group();
        g.members.insert(v);
        g.start = cts;
        hw_depth[v] = delay;
        g.depth_ns = hw_depth[v];
        g.cycles = clock_.cycles_for(g.depth_ns);
        g.reads = node.solo_reads;
        g.writes = node.solo_writes;
        std::vector<std::uint32_t>& gext = extern_ids_bucket(gid);
        for (const std::uint32_t id : gplus.live_ins(v)) {
          if (std::find(gext.begin(), gext.end(), id) == gext.end())
            gext.push_back(id);
        }
        result.group_id[v] = gid;
        result.slot[v] = cts;
        result.groups.push_back(std::move(g));
      }
    } else {
      // Fig 4.3.3: software list placement.
      int avail = 0;
      for (const dfg::NodeId p : preds) avail = std::max(avail, finish_of(p));
      const int cts = ledger.place(avail, 1, node.sw_reads, node.sw_writes,
                                   node.fu_class);
      result.slot[v] = cts;
      result.finish_[v] = cts + node.sw_cycles;
    }

    result.chosen[v] = opt_i;
    result.order[v] = pick_index++;
    ++scheduled;
    ++s.steps;
    leave_ready(v, pick - static_cast<std::size_t>(opt_i));
    for (const dfg::NodeId su : gplus.succs(v)) {
      if (--s.unresolved[su] == 0) enter_ready(su);
    }
  }

  // Every group is final now: materialise each node's finish.
  int tet = 0;
  for (dfg::NodeId v = 0; v < n; ++v) {
    result.finish_[v] = finish_of(v);
    tet = std::max(tet, result.finish_[v]);
  }
  result.tet = tet;
  return result;
}

WalkResult AntWalk::run(const PheromoneState& pheromone,
                        std::span<const double> sp_score, Rng& rng) const {
  WalkScratch scratch;
  run(pheromone, sp_score, rng, scratch);
  return std::move(scratch.result);
}

}  // namespace isex::core
