#include "baseline/exact_enumerator.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "dfg/analysis.hpp"
#include "sched/list_scheduler.hpp"
#include "util/assert.hpp"

namespace isex::baseline {
namespace {

/// Hash of a NodeSet's member list for deduplication.
struct SetHash {
  std::size_t operator()(const std::vector<dfg::NodeId>& v) const {
    std::size_t h = 1469598103934665603ULL;
    for (const dfg::NodeId id : v) {
      h ^= id;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// Fastest-fit option policy: per member pick the option with minimal
/// delay; when two options share the candidate's cycle count the smaller
/// one wins at the end (we compare whole-candidate evaluations).
std::vector<int> pick_options(const hw::GPlus& gplus,
                              const dfg::NodeSet& members, bool fastest) {
  std::vector<int> option(gplus.graph().num_nodes(), 0);
  members.for_each([&](dfg::NodeId v) {
    const hw::IoTableView table = gplus.table(v);
    int best = -1;
    for (std::size_t o = 0; o < table.size(); ++o) {
      if (!table.is_hardware(o)) continue;
      if (best < 0) {
        best = static_cast<int>(o);
        continue;
      }
      const auto& cand = table.option(o);
      const auto& cur = table.option(static_cast<std::size_t>(best));
      const bool better = fastest ? (cand.delay < cur.delay ||
                                     (cand.delay == cur.delay && cand.area < cur.area))
                                  : (cand.area < cur.area ||
                                     (cand.area == cur.area && cand.delay < cur.delay));
      if (better) best = static_cast<int>(o);
    }
    ISEX_ASSERT(best >= 0);
    option[v] = best;
  });
  return option;
}

}  // namespace

EnumerationResult enumerate_candidates(const hw::GPlus& gplus,
                                       const isa::IsaFormat& format,
                                       const ExactParams& params,
                                       hw::ClockSpec clock) {
  const dfg::Graph& graph = gplus.graph();
  const std::size_t n = graph.num_nodes();
  EnumerationResult result;
  if (n == 0) return result;

  const dfg::Reachability reach(graph);

  std::unordered_set<std::vector<dfg::NodeId>, SetHash> seen;
  std::vector<dfg::NodeSet> frontier;

  auto try_emit = [&](const dfg::NodeSet& members) {
    if (members.count() < 2) return;
    const int in_count = dfg::count_inputs(graph, members);
    const int out_count = dfg::count_outputs(graph, members);
    if (in_count > format.max_ise_inputs() ||
        out_count > format.max_ise_outputs())
      return;
    if (!dfg::is_convex(graph, members, reach)) return;

    // Evaluate both option policies; keep the better ASFU.
    EnumeratedCandidate cand;
    cand.members = members;
    cand.option = pick_options(gplus, members, /*fastest=*/true);
    cand.eval = hw::evaluate_asfu(gplus, members, cand.option, clock);
    const std::vector<int> small = pick_options(gplus, members, false);
    const hw::AsfuEvaluation small_eval =
        hw::evaluate_asfu(gplus, members, small, clock);
    if (small_eval.latency_cycles <= cand.eval.latency_cycles &&
        small_eval.area < cand.eval.area) {
      cand.option = small;
      cand.eval = small_eval;
    }
    if (format.max_ise_latency_cycles > 0 &&
        cand.eval.latency_cycles > format.max_ise_latency_cycles)
      return;
    cand.in_count = in_count;
    cand.out_count = out_count;
    result.candidates.push_back(std::move(cand));
  };

  // Seed with every hardware-capable node.
  for (dfg::NodeId v = 0; v < n; ++v) {
    if (!gplus.hardware_capable(v)) continue;
    dfg::NodeSet s(n);
    s.insert(v);
    if (seen.insert(s.to_vector()).second) {
      frontier.push_back(std::move(s));
      ++result.subgraphs_visited;
    }
  }

  // Breadth-first growth over hardware-capable neighbours.
  std::size_t cursor = 0;
  while (cursor < frontier.size()) {
    if (result.subgraphs_visited >= params.max_subgraphs) {
      result.truncated = true;
      break;
    }
    const dfg::NodeSet current = frontier[cursor++];
    try_emit(current);
    if (current.count() >= params.max_size) continue;

    // Candidate extensions: neighbours of members.
    dfg::NodeSet neighbours(n);
    current.for_each([&](dfg::NodeId v) {
      for (const dfg::NodeId u : graph.succs(v)) neighbours.insert(u);
      for (const dfg::NodeId u : graph.preds(v)) neighbours.insert(u);
    });
    neighbours -= current;
    neighbours.for_each([&](dfg::NodeId u) {
      if (!gplus.hardware_capable(u)) return;
      if (result.subgraphs_visited >= params.max_subgraphs) return;
      dfg::NodeSet grown = current;
      grown.insert(u);
      auto key = grown.to_vector();
      if (seen.insert(std::move(key)).second) {
        frontier.push_back(std::move(grown));
        ++result.subgraphs_visited;
      }
    });
  }
  if (result.subgraphs_visited >= params.max_subgraphs) result.truncated = true;
  return result;
}

ExactExplorer::ExactExplorer(sched::MachineConfig machine,
                             isa::IsaFormat format,
                             const hw::HwLibrary& library, ExactParams params,
                             hw::ClockSpec clock)
    : machine_(machine),
      format_(format),
      library_(library),
      params_(params),
      clock_(clock) {}

core::ExplorationResult ExactExplorer::explore(const dfg::Graph& block) const {
  core::ExplorationResult result;
  const sched::ListScheduler scheduler(machine_);
  if (block.empty()) return result;

  dfg::Graph current = block;
  std::vector<dfg::NodeSet> origin(block.num_nodes());
  for (dfg::NodeId v = 0; v < block.num_nodes(); ++v) {
    origin[v].resize(block.num_nodes());
    origin[v].insert(v);
  }
  result.base_cycles = scheduler.cycles(current);
  int current_cycles = result.base_cycles;

  for (;;) {
    const hw::GPlus gplus(current, library_);
    const EnumerationResult enumerated =
        enumerate_candidates(gplus, format_, params_, clock_);
    ++result.rounds;
    result.total_iterations +=
        static_cast<int>(enumerated.subgraphs_visited);

    int best_gain = 0;
    double best_area = std::numeric_limits<double>::max();
    const EnumeratedCandidate* best = nullptr;
    int best_cycles_after = current_cycles;
    for (const EnumeratedCandidate& cand : enumerated.candidates) {
      dfg::IseInfo info;
      info.latency_cycles = cand.eval.latency_cycles;
      info.area = cand.eval.area;
      info.num_inputs = cand.in_count;
      info.num_outputs = cand.out_count;
      const dfg::Graph collapsed = current.collapse(cand.members, info);
      const int cycles_after = scheduler.cycles(collapsed);
      const int gain = current_cycles - cycles_after;
      if (gain > best_gain ||
          (gain == best_gain && gain > 0 && cand.eval.area < best_area)) {
        best_gain = gain;
        best_area = cand.eval.area;
        best = &cand;
        best_cycles_after = cycles_after;
      }
    }
    if (best == nullptr || best_gain <= 0) break;

    core::ExploredIse record;
    record.original_nodes.resize(block.num_nodes());
    best->members.for_each([&](dfg::NodeId m) {
      record.original_nodes |= origin[m];
      const dfg::Node& n = current.node(m);
      record.member_labels.push_back(
          n.label.empty() ? std::string(isa::mnemonic(n.opcode)) : n.label);
    });
    record.eval = best->eval;
    record.in_count = best->in_count;
    record.out_count = best->out_count;
    record.gain_cycles = best_gain;
    result.ises.push_back(std::move(record));

    dfg::IseInfo info;
    info.latency_cycles = best->eval.latency_cycles;
    info.area = best->eval.area;
    info.num_inputs = best->in_count;
    info.num_outputs = best->out_count;
    std::vector<dfg::NodeId> old_to_new;
    dfg::Graph next = current.collapse(best->members, info, &old_to_new);
    std::vector<dfg::NodeSet> next_origin(next.num_nodes());
    for (auto& s : next_origin) s.resize(block.num_nodes());
    for (dfg::NodeId v = 0; v < current.num_nodes(); ++v)
      next_origin[old_to_new[v]] |= origin[v];
    current = std::move(next);
    origin = std::move(next_origin);
    current_cycles = best_cycles_after;
  }

  result.final_cycles = current_cycles;
  return result;
}

}  // namespace isex::baseline
