#include "dfg/analysis.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace isex::dfg {

Reachability::Reachability(const Graph& graph) {
  const std::size_t n = graph.num_nodes();
  desc_.assign(n, NodeSet(n));
  anc_.assign(n, NodeSet(n));

  const std::vector<NodeId> topo = graph.topological_order();

  // Descendants: sweep reverse-topologically, folding successor sets.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    for (const NodeId s : graph.succs(v)) {
      desc_[v].insert(s);
      desc_[v] |= desc_[s];
    }
  }
  // Ancestors: forward sweep, folding predecessor sets.
  for (const NodeId v : topo) {
    for (const NodeId p : graph.preds(v)) {
      anc_[v].insert(p);
      anc_[v] |= anc_[p];
    }
  }
}

NodeSet convexity_violators(const NodeSet& s, const Reachability& reach) {
  NodeSet below(s.universe());
  NodeSet above(s.universe());
  s.for_each([&](NodeId m) {
    below |= reach.descendants(m);
    above |= reach.ancestors(m);
  });
  below &= above;
  below -= s;
  return below;
}

bool is_convex(const Graph& graph, const NodeSet& s, const Reachability& reach) {
  ISEX_ASSERT(s.universe() == graph.num_nodes());
  return convexity_violators(s, reach).empty();
}

int count_inputs(const Graph& graph, const NodeSet& s) {
  ISEX_ASSERT(s.universe() == graph.num_nodes());
  NodeSet producers(graph.num_nodes());
  std::vector<int> extern_ids;
  s.for_each([&](NodeId v) {
    for (const int value_id : graph.extern_input_ids(v)) {
      if (std::find(extern_ids.begin(), extern_ids.end(), value_id) ==
          extern_ids.end())
        extern_ids.push_back(value_id);
    }
    for (const NodeId p : graph.preds(v)) {
      if (!s.contains(p)) producers.insert(p);
    }
  });
  return static_cast<int>(producers.count() + extern_ids.size());
}

int count_outputs(const Graph& graph, const NodeSet& s) {
  ISEX_ASSERT(s.universe() == graph.num_nodes());
  int outputs = 0;
  s.for_each([&](NodeId v) {
    bool escapes = graph.live_out(v);
    if (!escapes) {
      for (const NodeId c : graph.succs(v)) {
        if (!s.contains(c)) {
          escapes = true;
          break;
        }
      }
    }
    if (escapes) ++outputs;
  });
  return outputs;
}

PathInfo longest_path(const Graph& graph, const LatencyFn& latency) {
  const std::size_t n = graph.num_nodes();
  PathInfo info;
  info.earliest.assign(n, 0.0);
  info.latest.assign(n, 0.0);
  info.critical.resize(n);
  if (n == 0) return info;

  const std::vector<NodeId> topo = graph.topological_order();

  // ASAP: start = max over parents of (parent start + parent latency).
  double total = 0.0;
  for (const NodeId v : topo) {
    double start = 0.0;
    for (const NodeId p : graph.preds(v))
      start = std::max(start, info.earliest[p] + latency(p));
    info.earliest[v] = start;
    total = std::max(total, start + latency(v));
  }
  info.length = total;

  // ALAP: latest start keeping overall length `total`.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    double latest = total - latency(v);
    for (const NodeId c : graph.succs(v))
      latest = std::min(latest, info.latest[c] - latency(v));
    info.latest[v] = latest;
  }

  constexpr double kEps = 1e-9;
  for (NodeId v = 0; v < n; ++v) {
    if (info.latest[v] - info.earliest[v] <= kEps) info.critical.insert(v);
  }
  return info;
}

std::vector<NodeSet> weakly_connected_components(const Graph& graph,
                                                 const NodeSet& within) {
  ISEX_ASSERT(within.universe() == graph.num_nodes());
  std::vector<NodeSet> components;
  NodeSet visited(graph.num_nodes());

  within.for_each([&](NodeId seed) {
    if (visited.contains(seed)) return;
    NodeSet comp(graph.num_nodes());
    std::vector<NodeId> stack{seed};
    visited.insert(seed);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      comp.insert(v);
      auto visit = [&](NodeId u) {
        if (within.contains(u) && !visited.contains(u)) {
          visited.insert(u);
          stack.push_back(u);
        }
      };
      for (const NodeId u : graph.succs(v)) visit(u);
      for (const NodeId u : graph.preds(v)) visit(u);
    }
    components.push_back(std::move(comp));
  });
  return components;
}

double induced_critical_path(const Graph& graph, std::span<const NodeId> topo,
                             const NodeSet& s, const LatencyFn& latency) {
  ISEX_ASSERT(s.universe() == graph.num_nodes());
  ISEX_ASSERT(topo.size() == graph.num_nodes());
  std::vector<double> finish(graph.num_nodes(), 0.0);
  double longest = 0.0;
  for (const NodeId v : topo) {
    if (!s.contains(v)) continue;
    double start = 0.0;
    for (const NodeId p : graph.preds(v)) {
      if (s.contains(p)) start = std::max(start, finish[p]);
    }
    finish[v] = start + latency(v);
    longest = std::max(longest, finish[v]);
  }
  return longest;
}

}  // namespace isex::dfg
