#include "flow/replacement.hpp"

#include <algorithm>

#include "dfg/analysis.hpp"
#include "flow/subgraph_match.hpp"
#include "sched/list_scheduler.hpp"
#include "util/assert.hpp"

namespace isex::flow {
namespace {

dfg::IseInfo info_from(const core::ExploredIse& ise) {
  dfg::IseInfo info;
  info.latency_cycles = ise.eval.latency_cycles;
  info.area = ise.eval.area;
  info.num_inputs = ise.in_count;
  info.num_outputs = ise.out_count;
  return info;
}

/// Collapses the home-block candidates of `block_index`, translating each
/// original-coordinate member set through the accumulated id remapping.
dfg::Graph apply_home_ises(const ProfiledBlock& block, std::size_t block_index,
                           const SelectionResult& selection, int& uses) {
  // Selected entries of this block, in commit order.
  std::vector<const SelectedIse*> own;
  for (const SelectedIse& s : selection.selected) {
    if (s.entry.block_index == block_index) own.push_back(&s);
  }
  std::sort(own.begin(), own.end(), [](const SelectedIse* a, const SelectedIse* b) {
    return a->entry.position < b->entry.position;
  });

  dfg::Graph current = block.graph;
  // original node id -> current node id
  std::vector<dfg::NodeId> to_current(block.graph.num_nodes());
  for (dfg::NodeId v = 0; v < block.graph.num_nodes(); ++v) to_current[v] = v;

  for (const SelectedIse* s : own) {
    dfg::NodeSet members(current.num_nodes());
    s->entry.ise.original_nodes.for_each(
        [&](dfg::NodeId orig) { members.insert(to_current[orig]); });
    std::vector<dfg::NodeId> old_to_new;
    current = current.collapse(members, info_from(s->entry.ise), &old_to_new);
    for (dfg::NodeId v = 0; v < block.graph.num_nodes(); ++v)
      to_current[v] = old_to_new[to_current[v]];
    ++uses;
  }
  return current;
}

/// Tries to instantiate `pattern` matches inside `graph`; keeps a collapse
/// only when legal and strictly faster.
dfg::Graph apply_cross_matches(dfg::Graph graph, const IseCatalogEntry& entry,
                               const sched::ListScheduler& scheduler,
                               const ReplacementOptions& options, int& uses) {
  for (;;) {
    MatchOptions mopts;
    mopts.max_matches = options.max_matches_per_block;
    const auto matches = find_matches(entry.pattern, graph, mopts);
    if (matches.empty()) return graph;

    const int cycles_before = scheduler.cycles(graph);
    // The graph stays fixed until a match is applied, so one reachability
    // serves every convexity test of this pass.
    const dfg::Reachability reach(graph);
    bool applied = false;
    for (const std::vector<dfg::NodeId>& match : matches) {
      dfg::NodeSet members(graph.num_nodes());
      bool usable = true;
      for (const dfg::NodeId t : match) {
        if (graph.node(t).is_ise) usable = false;
        members.insert(t);
      }
      if (!usable) continue;
      if (!dfg::is_convex(graph, members, reach)) continue;
      if (dfg::count_inputs(graph, members) > entry.ise.in_count ||
          dfg::count_outputs(graph, members) > entry.ise.out_count) {
        // The occurrence needs more ports than the ASFU interface provides.
        continue;
      }
      dfg::Graph collapsed = graph.collapse(members, info_from(entry.ise));
      if (scheduler.cycles(collapsed) < cycles_before) {
        graph = std::move(collapsed);
        ++uses;
        applied = true;
        break;  // re-run matching on the rewritten graph
      }
    }
    if (!applied) return graph;
  }
}

}  // namespace

ReplacementResult apply_selection(const ProfiledProgram& program,
                                  const SelectionResult& selection,
                                  const sched::MachineConfig& machine,
                                  const ReplacementOptions& options) {
  const sched::ListScheduler scheduler(machine);
  ReplacementResult result;
  result.rewritten.reserve(program.blocks.size());

  // One representative catalog entry per ISE type, ranked by benefit, for
  // cross-block matching.
  std::vector<const SelectedIse*> type_reps;
  for (const SelectedIse& s : selection.selected) {
    if (!s.hardware_shared) type_reps.push_back(&s);
  }
  std::sort(type_reps.begin(), type_reps.end(),
            [](const SelectedIse* a, const SelectedIse* b) {
              return a->entry.benefit > b->entry.benefit;
            });

  for (std::size_t bi = 0; bi < program.blocks.size(); ++bi) {
    const ProfiledBlock& block = program.blocks[bi];
    BlockOutcome outcome;
    outcome.name = block.name;
    outcome.exec_count = block.exec_count;
    outcome.base_cycles = scheduler.cycles(block.graph);

    int uses = 0;
    dfg::Graph rewritten = apply_home_ises(block, bi, selection, uses);
    if (options.cross_block_matching) {
      for (const SelectedIse* rep : type_reps) {
        if (rep->entry.block_index == bi) continue;  // home handled above
        rewritten = apply_cross_matches(std::move(rewritten), rep->entry,
                                        scheduler, options, uses);
      }
    }

    outcome.final_cycles = scheduler.cycles(rewritten);
    outcome.ise_uses = uses;
    result.base_time +=
        static_cast<std::uint64_t>(outcome.base_cycles) * block.exec_count;
    result.final_time +=
        static_cast<std::uint64_t>(outcome.final_cycles) * block.exec_count;
    result.rewritten.push_back(std::move(rewritten));
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace isex::flow
