#include "sched/list_scheduler.hpp"

#include <algorithm>

#include "isa/opcode.hpp"
#include "util/assert.hpp"

namespace isex::sched {
namespace {

/// Mutable per-cycle resource ledger.
struct CycleResources {
  int issue_used = 0;
  int reads_used = 0;
  int writes_used = 0;
  std::array<int, kNumFuClasses> fu_used{};
};

template <typename G>
isa::FuClass fu_class_of(const G& graph, dfg::NodeId v) {
  const auto& n = graph.node(v);
  // ISE supernodes execute on their ASFU, not a core FU; model them as not
  // competing for FU slots (they still consume an issue slot and ports).
  return n.is_ise ? isa::FuClass::kAlu : isa::traits(n.opcode).fu;
}

template <typename G>
bool fits(const MachineConfig& cfg, const CycleResources& res, const G& graph,
          dfg::NodeId v) {
  if (res.issue_used + 1 > cfg.issue_width) return false;
  if (res.reads_used + read_ports_used(graph, v) > cfg.reg_file.read_ports)
    return false;
  if (res.writes_used + write_ports_used(graph, v) > cfg.reg_file.write_ports)
    return false;
  if (!graph.node(v).is_ise) {
    const auto cls = static_cast<std::size_t>(fu_class_of(graph, v));
    if (res.fu_used[cls] + 1 > cfg.fu_counts[cls]) return false;
  }
  return true;
}

template <typename G>
void charge(CycleResources& res, const G& graph, dfg::NodeId v) {
  res.issue_used += 1;
  res.reads_used += read_ports_used(graph, v);
  res.writes_used += write_ports_used(graph, v);
  if (!graph.node(v).is_ise)
    res.fu_used[static_cast<std::size_t>(fu_class_of(graph, v))] += 1;
}

/// The scheduling core, shared by run() and the scratch-backed cycles()
/// overloads.  Reads only num_nodes/preds/succs/node/extern_inputs of G, so
/// dfg::Graph and dfg::CollapsedView behave identically; placements land in
/// scratch.slot and the makespan is returned.
template <typename G>
int schedule_into(const MachineConfig& config, PriorityKind priority_kind,
                  const G& graph, SchedulerScratch& s) {
  const std::size_t n = graph.num_nodes();
  s.slot.assign(n, -1);
  if (n == 0) return 0;

  compute_priorities_into(graph, priority_kind, s.priority);
  const std::vector<double>& priority = s.priority.score;

  // Priorities are fixed for the whole run, so the ready list is kept
  // permanently sorted (highest priority first, ties by node id) and new
  // arrivals merge in — no full re-sort per cycle.  The comparator is a
  // strict total order (ids are unique), so the per-cycle issue order is
  // identical to re-sorting from scratch.
  const auto before = [&](dfg::NodeId a, dfg::NodeId b) {
    if (priority[a] != priority[b]) return priority[a] > priority[b];
    return a < b;
  };

  s.unresolved.assign(n, 0);
  s.ready_at.assign(n, 0);  // earliest cycle dependences allow
  for (dfg::NodeId v = 0; v < n; ++v)
    s.unresolved[v] = static_cast<int>(graph.preds(v).size());

  // `ready` and `leftover` swap every cycle, so either buffer may start the
  // next run as `ready`: both are reserved to n.
  std::vector<dfg::NodeId>& ready = s.ready;
  ready.clear();
  ready.reserve(n);
  for (dfg::NodeId v = 0; v < n; ++v)
    if (s.unresolved[v] == 0) ready.push_back(v);
  std::sort(ready.begin(), ready.end(), before);

  // Deferred arrivals: nodes whose dependences resolve at a future cycle.
  // Rows persist across runs (drained rows are cleared in the loop; clearing
  // here covers a prior run that asserted out mid-flight).
  std::vector<std::vector<dfg::NodeId>>& arriving = s.arriving;
  for (std::vector<dfg::NodeId>& row : arriving) row.clear();

  // Merges the sorted run [mid, end) of `list` into the sorted [0, mid).
  // Merged by hand through the reused s.merge_tmp: std::inplace_merge
  // heap-allocates a temporary buffer per call, which would break the
  // zero-allocation contract of warmed-up candidate evaluations.  The
  // comparator is a strict total order, so the merged sequence is the unique
  // sorted one either way.
  const auto merge_tail = [&](std::vector<dfg::NodeId>& list,
                              std::size_t mid) {
    std::sort(list.begin() + static_cast<std::ptrdiff_t>(mid), list.end(),
              before);
    std::vector<dfg::NodeId>& tmp = s.merge_tmp;
    tmp.assign(list.begin() + static_cast<std::ptrdiff_t>(mid), list.end());
    std::ptrdiff_t i = static_cast<std::ptrdiff_t>(mid) - 1;
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(tmp.size()) - 1;
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(list.size()) - 1;
    while (j >= 0) {
      if (i >= 0 && before(tmp[static_cast<std::size_t>(j)],
                           list[static_cast<std::size_t>(i)])) {
        list[static_cast<std::size_t>(k--)] = list[static_cast<std::size_t>(i--)];
      } else {
        list[static_cast<std::size_t>(k--)] = tmp[static_cast<std::size_t>(j--)];
      }
    }
  };

  std::size_t scheduled = 0;
  int cycle = 0;
  int makespan = 0;
  std::vector<dfg::NodeId>& leftover = s.leftover;  // reused across cycles
  std::vector<dfg::NodeId>& newly = s.newly;  // successors readied for cycle+1
  leftover.clear();
  newly.clear();
  leftover.reserve(n);

  while (scheduled < n) {
    if (static_cast<std::size_t>(cycle) < arriving.size() &&
        !arriving[cycle].empty()) {
      const std::size_t mid = ready.size();
      ready.insert(ready.end(), arriving[cycle].begin(), arriving[cycle].end());
      merge_tail(ready, mid);
      arriving[cycle].clear();
    }

    CycleResources res;
    leftover.clear();
    newly.clear();
    for (const dfg::NodeId v : ready) {
      if (s.ready_at[v] <= cycle && fits(config, res, graph, v)) {
        charge(res, graph, v);
        s.slot[v] = cycle;
        ++scheduled;
        const int finish = cycle + node_latency(graph, v);
        makespan = std::max(makespan, finish);
        for (const dfg::NodeId succ : graph.succs(v)) {
          s.ready_at[succ] = std::max(s.ready_at[succ], finish);
          if (--s.unresolved[succ] == 0) {
            if (static_cast<std::size_t>(s.ready_at[succ]) >= arriving.size())
              arriving.resize(static_cast<std::size_t>(s.ready_at[succ]) + 1);
            if (s.ready_at[succ] <= cycle + 1) {
              newly.push_back(succ);
            } else {
              arriving[static_cast<std::size_t>(s.ready_at[succ])].push_back(
                  succ);
            }
          }
        }
      } else {
        // Traversal order is sorted order, so unissued nodes land in
        // `leftover` already sorted; freshly readied successors collect in
        // `newly` and merge in below.
        leftover.push_back(v);
      }
    }
    if (!newly.empty()) {
      const std::size_t mid = leftover.size();
      leftover.insert(leftover.end(), newly.begin(), newly.end());
      merge_tail(leftover, mid);
    }
    std::swap(ready, leftover);
    ++cycle;
    ISEX_ASSERT_MSG(cycle <= static_cast<int>(n) * 64 + 64,
                    "scheduler failed to make progress");
  }

  return makespan;
}

}  // namespace

Schedule ListScheduler::run(const dfg::Graph& graph) const {
  SchedulerScratch scratch;
  Schedule sched;
  sched.cycles = schedule_into(config_, priority_, graph, scratch);
  sched.slot = std::move(scratch.slot);
  ISEX_ASSERT(respects_dependences(graph, sched));
  return sched;
}

template <typename G>
int ListScheduler::cycles(const G& graph, SchedulerScratch& scratch) const {
  return schedule_into(config_, priority_, graph, scratch);
}

template int ListScheduler::cycles<dfg::Graph>(const dfg::Graph&,
                                               SchedulerScratch&) const;
template int ListScheduler::cycles<dfg::CollapsedView>(
    const dfg::CollapsedView&, SchedulerScratch&) const;

}  // namespace isex::sched
