#include "flow/selection.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "flow/merging.hpp"
#include "util/assert.hpp"

namespace isex::flow {

bool SelectionResult::block_has(std::size_t block_index) const {
  return std::any_of(selected.begin(), selected.end(),
                     [&](const SelectedIse& s) {
                       return s.entry.block_index == block_index;
                     });
}

std::vector<IseCatalogEntry> build_catalog(
    const ProfiledProgram& program,
    const std::vector<std::size_t>& block_indices,
    const std::vector<core::ExplorationResult>& results) {
  ISEX_ASSERT(block_indices.size() == results.size());
  std::vector<IseCatalogEntry> catalog;
  for (std::size_t i = 0; i < block_indices.size(); ++i) {
    const std::size_t bi = block_indices[i];
    const ProfiledBlock& block = program.blocks[bi];
    for (std::size_t k = 0; k < results[i].ises.size(); ++k) {
      const core::ExploredIse& ise = results[i].ises[k];
      IseCatalogEntry entry;
      entry.block_index = bi;
      entry.position = k;
      entry.ise = ise;
      entry.pattern = induced_subgraph(block.graph, ise.original_nodes);
      entry.benefit = static_cast<std::uint64_t>(
                          std::max(0, ise.gain_cycles)) *
                      block.exec_count;
      catalog.push_back(std::move(entry));
    }
  }
  return catalog;
}

GreedySelection select_greedy(const std::vector<RankedCandidate>& candidates,
                              const SelectionConstraints& constraints) {
  GreedySelection result;

  // Prefix cursor / retirement flag per (program, block): a block's
  // gain_cycles were measured with its earlier commits in place, so its
  // candidates stay in commit order; an unaffordable head retires the block
  // (everything after it is unreachable).
  using BlockKey = std::pair<std::size_t, std::size_t>;
  std::map<BlockKey, std::size_t> next_position;
  std::map<BlockKey, bool> block_done;
  for (const RankedCandidate& c : candidates) {
    const BlockKey key{c.program_index, c.entry->block_index};
    next_position.try_emplace(key, 0);
    block_done.try_emplace(key, false);
  }

  // Representative pattern per selected type for sharing/merging checks.
  std::vector<const dfg::Graph*> type_patterns;

  for (;;) {
    // Head scan in candidate order, replacing the incumbent only on strict
    // improvement, so full ties resolve to the earliest candidate.
    std::size_t best = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const RankedCandidate& c = candidates[i];
      const BlockKey key{c.program_index, c.entry->block_index};
      if (block_done[key]) continue;
      if (c.entry->position != next_position[key]) continue;
      if (!(c.weighted_benefit > 0.0)) continue;
      if (best == candidates.size() ||
          c.weighted_benefit > candidates[best].weighted_benefit ||
          (c.weighted_benefit == candidates[best].weighted_benefit &&
           c.entry->ise.eval.area < candidates[best].entry->ise.eval.area)) {
        best = i;
      }
    }
    if (best == candidates.size()) break;
    const IseCatalogEntry& head = *candidates[best].entry;

    // Sharing/merging: a pattern isomorphic to (or a subgraph of) any
    // selected type's pattern reuses that ASFU for free, whichever program
    // first paid for it.
    int share_type = -1;
    for (std::size_t t = 0; t < type_patterns.size() && share_type < 0; ++t) {
      const MergeRelation rel = classify_merge(head.pattern, *type_patterns[t]);
      if (rel == MergeRelation::kEqual || rel == MergeRelation::kIntoOther)
        share_type = static_cast<int>(t);
    }

    const double charge = share_type >= 0 ? 0.0 : head.ise.eval.area;
    const bool needs_new_type = share_type < 0;
    const bool area_ok = result.total_area + charge <= constraints.area_budget;
    const bool type_ok =
        !needs_new_type || result.num_types < constraints.max_ises;

    const BlockKey key{candidates[best].program_index, head.block_index};
    if (!area_ok || !type_ok) {
      block_done[key] = true;
      continue;
    }

    GreedyPick pick;
    pick.candidate = best;
    if (needs_new_type) {
      pick.type_id = result.num_types++;
      type_patterns.push_back(&head.pattern);
      result.total_area += charge;
    } else {
      pick.type_id = share_type;
      pick.hardware_shared = true;
    }
    result.picks.push_back(pick);
    next_position[key] += 1;
  }
  return result;
}

SelectionResult select_ises(const std::vector<IseCatalogEntry>& catalog,
                            const SelectionConstraints& constraints) {
  std::vector<RankedCandidate> candidates;
  candidates.reserve(catalog.size());
  for (const IseCatalogEntry& e : catalog)
    candidates.push_back({0, &e, static_cast<double>(e.benefit)});
  const GreedySelection greedy = select_greedy(candidates, constraints);

  SelectionResult result;
  result.total_area = greedy.total_area;
  result.num_types = greedy.num_types;
  for (const GreedyPick& pick : greedy.picks)
    result.selected.push_back(SelectedIse{*candidates[pick.candidate].entry,
                                          pick.type_id, pick.hardware_shared});
  return result;
}

}  // namespace isex::flow
