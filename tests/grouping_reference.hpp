// Per-node references for the Hardware-Grouping and merit equivalence
// properties: vS_x re-grown and re-analysed from scratch for every operation,
// as the paper states it, and the random blocks the properties draw.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/hardware_grouping.hpp"
#include "dfg/analysis.hpp"
#include "hwlib/gplus.hpp"
#include "isa/register_file.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace isex::testing {

/// Per-node reference: BFS from x through hardware-chosen neighbours, then
/// every figure recomputed from scratch on the member set, with convexity
/// tested pairwise.
inline core::VirtualCandidate reference_group(
    const hw::GPlus& gplus, const isa::IsaFormat& format,
    const dfg::Reachability& reach, dfg::NodeId x,
    std::span<const int> chosen, hw::ClockSpec clock = {}) {
  const dfg::Graph& graph = gplus.graph();
  const std::size_t n = graph.num_nodes();
  auto chose_hardware = [&](dfg::NodeId u) { return chosen[u] > 0; };
  core::VirtualCandidate cand;
  cand.members.resize(n);
  cand.members.insert(x);
  std::vector<dfg::NodeId> stack{x};
  while (!stack.empty()) {
    const dfg::NodeId v = stack.back();
    stack.pop_back();
    auto visit = [&](dfg::NodeId u) {
      if (!cand.members.contains(u) && chose_hardware(u)) {
        cand.members.insert(u);
        stack.push_back(u);
      }
    };
    for (const dfg::NodeId u : graph.succs(v)) visit(u);
    for (const dfg::NodeId u : graph.preds(v)) visit(u);
  }
  cand.in_count = dfg::count_inputs(graph, cand.members);
  cand.out_count = dfg::count_outputs(graph, cand.members);
  cand.io_violation = cand.in_count > format.max_ise_inputs() ||
                      cand.out_count > format.max_ise_outputs();
  const std::vector<dfg::NodeId> members = cand.members.to_vector();
  for (dfg::NodeId w = 0; w < n; ++w) {
    if (cand.members.contains(w)) continue;
    bool below = false;
    bool above = false;
    for (const dfg::NodeId m : members) {
      below = below || reach.reaches(m, w);
      above = above || reach.reaches(w, m);
    }
    cand.convex_violation = cand.convex_violation || (below && above);
  }
  for (const dfg::NodeId m : members)
    cand.sw_seq_cycles += gplus.software_cycles(m);

  const std::vector<dfg::NodeId> topo = graph.topological_order();
  cand.per_option.resize(gplus.num_options(x));
  int best_cycles = -1;
  for (std::size_t j = 1; j < gplus.num_options(x); ++j) {
    // Flat index of member v's option, x's replaced by j.
    auto entry_of = [&](dfg::NodeId v) {
      return gplus.offset(v) +
             (v == x ? j : static_cast<std::size_t>(chosen[v]));
    };
    core::VirtualCandidate::OptionEval& eval = cand.per_option[j];
    eval.valid = true;
    eval.depth_ns = dfg::induced_critical_path(
        graph, topo, cand.members,
        [&](dfg::NodeId v) { return gplus.delays()[entry_of(v)]; });
    eval.cycles = clock.cycles_for(eval.depth_ns);
    for (const dfg::NodeId m : members)
      eval.area += gplus.areas()[entry_of(m)];
    if (best_cycles < 0 || eval.cycles < best_cycles)
      best_cycles = eval.cycles;
  }
  cand.timing_violation = format.max_ise_latency_cycles > 0 &&
                          best_cycles > format.max_ise_latency_cycles;
  return cand;
}

/// Random block mixing multi-option, single-option and never-hardware
/// operations, shared and private live-in values, and live-outs.
inline dfg::Graph random_block(std::size_t n, Rng& rng, double edge_prob) {
  static constexpr isa::Opcode kOps[] = {
      isa::Opcode::kAddu, isa::Opcode::kXor, isa::Opcode::kAnd,
      isa::Opcode::kSrl,  isa::Opcode::kLw,  isa::Opcode::kSubu,
      isa::Opcode::kMult, isa::Opcode::kSltu, isa::Opcode::kOr,
  };
  dfg::Graph g;
  for (std::size_t i = 0; i < n; ++i) {
    const auto op = kOps[rng.next_below(std::uint32_t{std::size(kOps)})];
    const dfg::NodeId v = g.add_node(op, indexed_name("r", i));
    int preds = 0;
    for (int k = 0; k < 3 && i > 0; ++k) {
      if (rng.next_double() >= edge_prob) continue;
      const auto p = static_cast<dfg::NodeId>(
          rng.next_below(static_cast<std::uint32_t>(i)));
      if (!g.has_edge(p, v)) {
        g.add_edge(p, v);
        ++preds;
      }
    }
    std::vector<int> ids;
    for (int k = preds; k < 2; ++k)
      ids.push_back(static_cast<int>(rng.next_below(6)));  // few shared values
    g.set_extern_input_ids(v, ids);
    if (rng.next_double() < 0.1) g.set_live_out(v, true);
  }
  return g;
}

}  // namespace isex::testing
