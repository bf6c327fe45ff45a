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
    : gplus_(&gplus), format_(format), reach_(&reach), clock_(clock) {}

void HardwareGrouping::label_components(std::span<const int> chosen,
                                        GroupingScratch& scratch) const {
  const std::size_t n = gplus_->num_nodes();
  ISEX_ASSERT(chosen.size() == n);

  // The per-node arrays change size only with the round's graph; within a
  // round only the labels are reset.
  if (scratch.label.size() != n) {
    scratch.label.resize(n);
    scratch.option.resize(n);
    scratch.delay.resize(n);
    scratch.area.resize(n);
    scratch.finish.resize(n);
    scratch.alt_finish.resize(n);
    scratch.outside_consumers.resize(n);
  }
  std::fill(scratch.label.begin(), scratch.label.end(), -1);
  // Option 0 is software and every other option hardware (G+'s layout).
  const double* const delays = gplus_->delays().data();
  const double* const areas = gplus_->areas().data();
  for (dfg::NodeId v = 0; v < n; ++v) {
    const int o = chosen[v];
    if (o <= 0) continue;
    const std::size_t i = gplus_->offset(v) + static_cast<std::size_t>(o);
    ISEX_ASSERT(i < gplus_->offset(v + 1));
    scratch.label[v] = kUnlabelled;
    scratch.option[v] = o;
    scratch.delay[v] = delays[i];
    scratch.area[v] = areas[i];
  }

  // Flood each component from its lowest-id member.
  scratch.num_components = 0;
  scratch.joined_x = dfg::kInvalidNode;
  for (dfg::NodeId seed = 0; seed < n; ++seed) {
    if (scratch.label[seed] != kUnlabelled) continue;
    const int c = static_cast<int>(scratch.num_components++);
    if (scratch.components.size() < scratch.num_components)
      scratch.components.emplace_back();
    GroupingScratch::Component& comp = scratch.components[c];
    comp.order.clear();
    comp.depth = 0.0;
    dfg::NodeSet& members = comp.cand.members;
    members.resize(n);
    members.insert(seed);
    scratch.label[seed] = c;
    scratch.stack.clear();
    scratch.stack.push_back(seed);
    while (!scratch.stack.empty()) {
      const dfg::NodeId v = scratch.stack.back();
      scratch.stack.pop_back();
      auto visit = [&](dfg::NodeId u) {
        if (scratch.label[u] != kUnlabelled) return;
        scratch.label[u] = c;
        members.insert(u);
        scratch.stack.push_back(u);
      };
      for (const dfg::NodeId u : gplus_->succs(v)) visit(u);
      for (const dfg::NodeId u : gplus_->preds(v)) visit(u);
    }
  }

  // One max-plus pass over every hardware-chosen node in topological order,
  // each on its chosen option.  A hardware-chosen predecessor is always in
  // the node's own component, since no edge joins two.
  for (const dfg::NodeId v : gplus_->topological_order()) {
    const int c = scratch.label[v];
    if (c < 0) continue;
    GroupingScratch::Component& comp =
        scratch.components[static_cast<std::size_t>(c)];
    comp.order.push_back(v);
    double start = 0.0;
    for (const dfg::NodeId p : gplus_->preds(v)) {
      if (scratch.label[p] >= 0) start = std::max(start, scratch.finish[p]);
    }
    scratch.finish[v] = start + scratch.delay[v];
    comp.depth = std::max(comp.depth, scratch.finish[v]);
  }
  for (std::size_t c = 0; c < scratch.num_components; ++c) {
    GroupingScratch::Component& comp = scratch.components[c];
    // Every component has a member; copying the first one's rows reuses
    // the sets' storage.
    comp.below = reach_->descendants(comp.order.front());
    comp.above = reach_->ancestors(comp.order.front());
    for (std::size_t i = 1; i < comp.order.size(); ++i) {
      comp.below |= reach_->descendants(comp.order[i]);
      comp.above |= reach_->ancestors(comp.order[i]);
    }
    analyse(comp, scratch);
  }
}

void HardwareGrouping::analyse(GroupingScratch::Component& comp,
                               GroupingScratch& scratch) const {
  const dfg::Graph& graph = gplus_->graph();
  VirtualCandidate& cand = comp.cand;
  comp.producers.resize(graph.num_nodes());
  comp.live_ins.resize(gplus_->num_live_ins());
  cand.out_count = 0;
  for (const dfg::NodeId v : comp.order) {
    const int c = scratch.label[v];
    for (const dfg::NodeId p : gplus_->preds(v))
      if (scratch.label[p] != c) comp.producers.insert(p);
    for (const std::uint32_t id : gplus_->live_ins(v)) comp.live_ins.insert(id);
    int outside = 0;
    for (const dfg::NodeId s : gplus_->succs(v))
      outside += scratch.label[s] != c;
    scratch.outside_consumers[v] = outside;
    cand.out_count += graph.live_out(v) || outside > 0;
  }
  cand.in_count =
      static_cast<int>(comp.producers.count() + comp.live_ins.count());
  cand.io_violation = cand.in_count > format_.max_ise_inputs() ||
                      cand.out_count > format_.max_ise_outputs();
  // Convex iff (∪desc ∩ ∪anc) \ S is empty.
  cand.convex_violation =
      comp.below.intersects_outside(comp.above, cand.members);
  cand.sw_seq_cycles = 0.0;
  comp.area = 0.0;
  cand.members.for_each([&](dfg::NodeId v) {
    cand.sw_seq_cycles += gplus_->software_cycles(v);
    comp.area += scratch.area[v];
  });
}

bool HardwareGrouping::isolated(dfg::NodeId x,
                                const GroupingScratch& scratch) const {
  ISEX_ASSERT(x < scratch.label.size());
  const int c = scratch.label[x];
  if (c >= 0)
    return scratch.components[static_cast<std::size_t>(c)].order.size() == 1;
  for (const dfg::NodeId u : gplus_->succs(x))
    if (scratch.label[u] >= 0) return false;
  for (const dfg::NodeId u : gplus_->preds(x))
    if (scratch.label[u] >= 0) return false;
  return true;
}

const VirtualCandidate& HardwareGrouping::join(dfg::NodeId x,
                                               GroupingScratch& scratch) const {
  const dfg::Graph& graph = gplus_->graph();
  ISEX_ASSERT(x < scratch.label.size());

  if (scratch.label[x] >= 0) {
    VirtualCandidate& cand =
        scratch.components[static_cast<std::size_t>(scratch.label[x])].cand;
    cand.timing_violation = false;
    return cand;
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
  for (const dfg::NodeId u : gplus_->succs(x)) touch(u);
  for (const dfg::NodeId u : gplus_->preds(x)) touch(u);

  GroupingScratch::Component& joined = scratch.joined;
  scratch.joined_x = x;
  VirtualCandidate& cand = joined.cand;
  cand.members.resize(graph.num_nodes());
  cand.members.insert(x);
  joined.below = reach_->descendants(x);
  joined.above = reach_->ancestors(x);
  joined.producers.resize(graph.num_nodes());
  joined.live_ins.resize(gplus_->num_live_ins());
  for (const std::uint32_t id : gplus_->live_ins(x)) joined.live_ins.insert(id);
  cand.out_count = 0;
  for (const int c : scratch.adjacent) {
    const GroupingScratch::Component& comp =
        scratch.components[static_cast<std::size_t>(c)];
    cand.members |= comp.cand.members;
    joined.below |= comp.below;
    joined.above |= comp.above;
    joined.producers |= comp.producers;
    joined.live_ins |= comp.live_ins;
    cand.out_count += comp.cand.out_count;
  }
  // The components' producers and outputs change only at x's own edges:
  // x's software-chosen producers join, x stops being a producer, and a
  // member whose only consumer outside its component was x stops being an
  // output.
  for (const dfg::NodeId p : gplus_->preds(x)) {
    if (scratch.label[p] < 0) {
      joined.producers.insert(p);
    } else if (!graph.live_out(p) && scratch.outside_consumers[p] == 1) {
      --cand.out_count;
    }
  }
  joined.producers.erase(x);
  cand.in_count =
      static_cast<int>(joined.producers.count() + joined.live_ins.count());
  bool x_escapes = graph.live_out(x);
  for (const dfg::NodeId s : gplus_->succs(x))
    x_escapes = x_escapes || scratch.label[s] < 0;
  cand.out_count += x_escapes;
  cand.io_violation = cand.in_count > format_.max_ise_inputs() ||
                      cand.out_count > format_.max_ise_outputs();
  // Convex iff (∪desc ∩ ∪anc) \ S is empty.
  cand.convex_violation =
      joined.below.intersects_outside(joined.above, cand.members);
  cand.timing_violation = false;
  return cand;
}

const VirtualCandidate& HardwareGrouping::evaluate(
    dfg::NodeId x, GroupingScratch& scratch) const {
  ISEX_ASSERT(x < scratch.label.size());
  if (scratch.label[x] >= 0) {
    VirtualCandidate& cand =
        scratch.components[static_cast<std::size_t>(scratch.label[x])].cand;
    fill_options(x, cand, std::span<const int>(&scratch.label[x], 1),
                 scratch);
    return cand;
  }
  ISEX_ASSERT_MSG(scratch.joined_x == x, "evaluate(x) needs join(x) first");
  VirtualCandidate& cand = scratch.joined.cand;
  cand.sw_seq_cycles = 0.0;
  cand.members.for_each([&](dfg::NodeId v) {
    cand.sw_seq_cycles += gplus_->software_cycles(v);
  });
  fill_options(x, cand, scratch.adjacent, scratch);
  return cand;
}

const VirtualCandidate& HardwareGrouping::group(
    dfg::NodeId x, GroupingScratch& scratch) const {
  join(x, scratch);
  return evaluate(x, scratch);
}

void HardwareGrouping::fill_options(dfg::NodeId x, VirtualCandidate& cand,
                                    std::span<const int> comps,
                                    GroupingScratch& scratch) const {
  // vS_{x,HW-j}: x on option j, every other member on the hardware option it
  // chose.  At the option x chose, that is its component's base pass; any
  // other option re-runs x's descendants, and its area sums in ascending
  // member order.
  // x's options 1..k-1 are its hardware options (G+'s layout).
  const std::size_t first = gplus_->offset(x);
  const std::size_t k = gplus_->offset(x + 1) - first;
  const double* const delays = gplus_->delays().data() + first;
  const double* const areas = gplus_->areas().data() + first;
  const int x_label = scratch.label[x];
  cand.per_option.assign(k, VirtualCandidate::OptionEval{});
  int best_cycles = -1;
  for (std::size_t j = 1; j < k; ++j) {
    VirtualCandidate::OptionEval& eval = cand.per_option[j];
    eval.valid = true;
    if (x_label >= 0 && scratch.option[x] == static_cast<int>(j)) {
      const GroupingScratch::Component& comp =
          scratch.components[static_cast<std::size_t>(x_label)];
      eval.depth_ns = comp.depth;
      eval.area = comp.area;
    } else {
      eval.depth_ns = depth_with(x, delays[j], comps, scratch);
      cand.members.for_each([&](dfg::NodeId v) {
        eval.area += v == x ? areas[j] : scratch.area[v];
      });
    }
    eval.cycles = clock_.cycles_for(eval.depth_ns);
    if (best_cycles < 0 || eval.cycles < best_cycles)
      best_cycles = eval.cycles;
  }
  cand.timing_violation = format_.max_ise_latency_cycles > 0 &&
                          best_cycles > format_.max_ise_latency_cycles;
}

double HardwareGrouping::depth_with(dfg::NodeId x, double x_delay,
                                    std::span<const int> comps,
                                    GroupingScratch& scratch) const {
  // A member's finish depends on x only when it descends from x; the others
  // keep their base finish.  Each component's order is topological, and a
  // member's predecessors inside vS_x are x and its own component's members.
  const dfg::NodeSet& below_x = reach_->descendants(x);
  double start = 0.0;
  for (const dfg::NodeId p : gplus_->preds(x)) {
    if (scratch.label[p] >= 0) start = std::max(start, scratch.finish[p]);
  }
  scratch.alt_finish[x] = start + x_delay;
  double depth = std::max(0.0, scratch.alt_finish[x]);
  for (const int c : comps) {
    for (const dfg::NodeId v :
         scratch.components[static_cast<std::size_t>(c)].order) {
      if (v == x) continue;
      if (!below_x.contains(v)) {
        depth = std::max(depth, scratch.finish[v]);
        continue;
      }
      double ready = 0.0;
      for (const dfg::NodeId p : gplus_->preds(v)) {
        if (p == x) {
          ready = std::max(ready, scratch.alt_finish[x]);
        } else if (scratch.label[p] >= 0) {
          ready = std::max(ready, below_x.contains(p) ? scratch.alt_finish[p]
                                                      : scratch.finish[p]);
        }
      }
      scratch.alt_finish[v] = ready + scratch.delay[v];
      depth = std::max(depth, scratch.alt_finish[v]);
    }
  }
  return depth;
}

}  // namespace isex::core
