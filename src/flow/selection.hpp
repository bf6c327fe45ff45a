// ISE selection with hardware sharing (design-flow stage, Fig 3.1.1).
//
// Greedy, as in the paper's evaluation (§5.1): rank explored candidates by
// program-level benefit (per-block cycle gain × block execution count) and
// select as many as the constraints admit — total ASFU silicon area and the
// ISA-format opcode budget (number of distinct ISE *types*).  Hardware
// sharing and merging reduce both bills: a candidate isomorphic to (or a
// subgraph of) an already-selected type reuses that ASFU for free.
//
// Candidates within one block must be selected in commit order — each
// gain_cycles was measured with the previous ISEs already in place — so
// selection walks per-block prefixes.
//
// There is one greedy, select_greedy, over candidates from any number of
// programs, each ranked by benefit × its program's weight (the portfolio
// case, portfolio.hpp).  select_ises is its one-program instance at weight
// 1.0.  It ranks double(benefit), which orders exactly like the integer
// benefit while benefits stay below 2^53.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/mi_explorer.hpp"
#include "dfg/graph.hpp"
#include "flow/program.hpp"

namespace isex::flow {

/// One explored candidate, flattened out of its block's ExplorationResult.
struct IseCatalogEntry {
  std::size_t block_index = 0;
  /// Commit order within the block (0 = first ISE explored there).
  std::size_t position = 0;
  core::ExploredIse ise;
  /// Pattern graph (induced subgraph of the block over the members).
  dfg::Graph pattern;
  /// gain_cycles × block execution count.
  std::uint64_t benefit = 0;
};

struct SelectionConstraints {
  /// Total extra silicon area allowed, µm².
  double area_budget = std::numeric_limits<double>::infinity();
  /// Distinct ISE types (free opcodes).
  int max_ises = 32;
};

struct SelectedIse {
  IseCatalogEntry entry;
  /// Equivalence class (ASFU) identifier.
  int type_id = 0;
  /// True when this selection reuses an earlier selection's ASFU.
  bool hardware_shared = false;
};

struct SelectionResult {
  std::vector<SelectedIse> selected;
  double total_area = 0.0;
  int num_types = 0;

  bool block_has(std::size_t block_index) const;
};

/// Builds the catalog from per-block exploration results.
std::vector<IseCatalogEntry> build_catalog(
    const ProfiledProgram& program,
    const std::vector<std::size_t>& block_indices,
    const std::vector<core::ExplorationResult>& results);

/// A catalog entry as the greedy ranks it: the program it belongs to and
/// its benefit scaled by that program's weight.  The entry is borrowed.
struct RankedCandidate {
  std::size_t program_index = 0;
  const IseCatalogEntry* entry = nullptr;
  double weighted_benefit = 0.0;
};

/// One selection, in selection order.
struct GreedyPick {
  /// Index into the candidate list.
  std::size_t candidate = 0;
  /// ASFU equivalence class, shared by every program.
  int type_id = 0;
  /// True when this pick reuses an ASFU an earlier pick paid for.
  bool hardware_shared = false;
};

struct GreedySelection {
  std::vector<GreedyPick> picks;
  double total_area = 0.0;
  int num_types = 0;
};

/// The selection greedy under `constraints`.  Candidates must be grouped
/// per (program, block) in commit-position order, as build_catalog emits
/// them.  Each step takes the block head with the highest weighted benefit
/// (ties: the smaller ASFU, then the earlier candidate); a head that cannot
/// be afforded retires its block instead.  Serial and index-ordered, so the
/// result never depends on the thread count.
GreedySelection select_greedy(const std::vector<RankedCandidate>& candidates,
                              const SelectionConstraints& constraints);

/// select_greedy over one program's catalog at weight 1.0.
SelectionResult select_ises(const std::vector<IseCatalogEntry>& catalog,
                            const SelectionConstraints& constraints);

}  // namespace isex::flow
