#include "core/hardware_grouping.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace isex::core {
namespace {

/// `label` of a hardware-chosen node that no component has claimed yet.
constexpr int kUnlabelled = -2;

}  // namespace

HardwareGrouping::HardwareGrouping(const hw::GPlus& gplus,
                                   const isa::IsaFormat& format,
                                   const dfg::Reachability& reach,
                                   hw::ClockSpec clock)
    : gplus_(&gplus), format_(format), reach_(&reach), clock_(clock) {
  const std::span<const dfg::NodeId> topo = gplus.topological_order();
  topo_rank_.resize(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i)
    topo_rank_[topo[i]] = static_cast<int>(i);
}

void HardwareGrouping::label_components(std::span<const int> chosen,
                                        GroupingScratch& scratch) const {
  const dfg::Graph& graph = gplus_->graph();
  const std::size_t n = graph.num_nodes();
  ISEX_ASSERT(chosen.size() == n);

  scratch.label.assign(n, -1);
  scratch.delay.resize(n);
  scratch.area.resize(n);
  scratch.finish.resize(n);
  for (dfg::NodeId v = 0; v < n; ++v) {
    const int o = chosen[v];
    const hw::IoTable& table = gplus_->table(v);
    if (o < 0 || !table.is_hardware(static_cast<std::size_t>(o))) continue;
    scratch.label[v] = kUnlabelled;
    scratch.delay[v] = table.option(static_cast<std::size_t>(o)).delay;
    scratch.area[v] = table.option(static_cast<std::size_t>(o)).area;
  }

  // Flood each component from its lowest-id member.
  scratch.num_components = 0;
  for (dfg::NodeId seed = 0; seed < n; ++seed) {
    if (scratch.label[seed] != kUnlabelled) continue;
    const int c = static_cast<int>(scratch.num_components++);
    if (scratch.components.size() < scratch.num_components)
      scratch.components.emplace_back();
    scratch.components[c].order.clear();
    dfg::NodeSet& members = scratch.components[c].cand.members;
    members.resize(n);
    members.insert(seed);
    scratch.label[seed] = c;
    scratch.stack.assign(1, seed);
    while (!scratch.stack.empty()) {
      const dfg::NodeId v = scratch.stack.back();
      scratch.stack.pop_back();
      auto visit = [&](dfg::NodeId u) {
        if (scratch.label[u] != kUnlabelled) return;
        scratch.label[u] = c;
        members.insert(u);
        scratch.stack.push_back(u);
      };
      for (const dfg::NodeId u : graph.succs(v)) visit(u);
      for (const dfg::NodeId u : graph.preds(v)) visit(u);
    }
  }

  for (const dfg::NodeId v : gplus_->topological_order()) {
    if (scratch.label[v] >= 0)
      scratch.components[static_cast<std::size_t>(scratch.label[v])]
          .order.push_back(v);
  }
  for (std::size_t c = 0; c < scratch.num_components; ++c) {
    GroupingScratch::Component& comp = scratch.components[c];
    comp.below.resize(n);
    comp.above.resize(n);
    for (const dfg::NodeId v : comp.order) {
      comp.below |= reach_->descendants(v);
      comp.above |= reach_->ancestors(v);
    }
    analyse(comp, scratch);
  }
}

void HardwareGrouping::analyse(GroupingScratch::Component& comp,
                               GroupingScratch& scratch) const {
  const dfg::Graph& graph = gplus_->graph();
  VirtualCandidate& cand = comp.cand;
  cand.in_count = dfg::count_inputs(graph, cand.members, scratch.producers,
                                    scratch.extern_ids);
  cand.out_count = dfg::count_outputs(graph, cand.members);
  cand.io_violation = cand.in_count > format_.max_ise_inputs() ||
                      cand.out_count > format_.max_ise_outputs();
  // Convex iff (∪desc ∩ ∪anc) \ S is empty; `producers` is free again.
  dfg::NodeSet& violators = scratch.producers;
  violators = comp.below;
  violators &= comp.above;
  violators -= cand.members;
  cand.convex_violation = !violators.empty();
  cand.sw_seq_cycles = 0.0;
  cand.members.for_each([&](dfg::NodeId v) {
    cand.sw_seq_cycles += gplus_->software_cycles(v);
  });
}

const VirtualCandidate& HardwareGrouping::group(
    dfg::NodeId x, GroupingScratch& scratch) const {
  const dfg::Graph& graph = gplus_->graph();
  ISEX_ASSERT(x < scratch.label.size());

  if (scratch.label[x] >= 0) {
    GroupingScratch::Component& comp =
        scratch.components[static_cast<std::size_t>(scratch.label[x])];
    evaluate_options(x, comp.cand, comp.order, scratch);
    return comp.cand;
  }

  // x chose software (or nothing yet): vS_x is x plus every component it
  // touches.
  scratch.adjacent.clear();
  auto touch = [&](dfg::NodeId u) {
    const int c = scratch.label[u];
    if (c >= 0 && std::find(scratch.adjacent.begin(), scratch.adjacent.end(),
                            c) == scratch.adjacent.end())
      scratch.adjacent.push_back(c);
  };
  for (const dfg::NodeId u : graph.succs(x)) touch(u);
  for (const dfg::NodeId u : graph.preds(x)) touch(u);

  GroupingScratch::Component& merged = scratch.merged;
  merged.cand.members.resize(graph.num_nodes());
  merged.cand.members.insert(x);
  merged.below = reach_->descendants(x);
  merged.above = reach_->ancestors(x);
  merged.order.assign(1, x);
  for (const int c : scratch.adjacent) {
    const GroupingScratch::Component& comp =
        scratch.components[static_cast<std::size_t>(c)];
    merged.cand.members |= comp.cand.members;
    merged.below |= comp.below;
    merged.above |= comp.above;
    merged.order.insert(merged.order.end(), comp.order.begin(),
                        comp.order.end());
  }
  // Sorting the k members by rank, rather than filtering all n nodes of the
  // topological order, keeps this O(k log k) per software-chosen x.
  std::sort(merged.order.begin(), merged.order.end(),
            [&](dfg::NodeId a, dfg::NodeId b) {
              return topo_rank_[a] < topo_rank_[b];
            });
  analyse(merged, scratch);
  evaluate_options(x, merged.cand, merged.order, scratch);
  return merged.cand;
}

void HardwareGrouping::evaluate_options(dfg::NodeId x, VirtualCandidate& cand,
                                        std::span<const dfg::NodeId> order,
                                        GroupingScratch& scratch) const {
  // vS_{x,HW-j}: x on option j, every other member on the hardware option it
  // chose.  Depth is the induced critical path — a max-plus forward pass in
  // topological order — and area sums in ascending member order.
  const dfg::Graph& graph = gplus_->graph();
  const hw::IoTable& x_table = gplus_->table(x);
  cand.per_option.assign(x_table.size(), VirtualCandidate::OptionEval{});
  int best_cycles = -1;
  for (std::size_t j = 0; j < x_table.size(); ++j) {
    if (!x_table.is_hardware(j)) continue;
    const hw::ImplOption& option = x_table.option(j);
    double depth = 0.0;
    for (const dfg::NodeId v : order) {
      double start = 0.0;
      for (const dfg::NodeId p : graph.preds(v)) {
        if (cand.members.contains(p))
          start = std::max(start, scratch.finish[p]);
      }
      scratch.finish[v] = start + (v == x ? option.delay : scratch.delay[v]);
      depth = std::max(depth, scratch.finish[v]);
    }
    double area = 0.0;
    cand.members.for_each([&](dfg::NodeId v) {
      area += v == x ? option.area : scratch.area[v];
    });
    VirtualCandidate::OptionEval& eval = cand.per_option[j];
    eval.valid = true;
    eval.depth_ns = depth;
    eval.cycles = clock_.cycles_for(depth);
    eval.area = area;
    if (best_cycles < 0 || eval.cycles < best_cycles)
      best_cycles = eval.cycles;
  }
  cand.timing_violation = format_.max_ise_latency_cycles > 0 &&
                          best_cycles > format_.max_ise_latency_cycles;
}

}  // namespace isex::core
