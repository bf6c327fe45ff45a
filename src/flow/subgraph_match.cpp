#include "flow/subgraph_match.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace isex::flow {
namespace {

/// Label equality for matching: opcode for regular nodes; ISE supernodes
/// only match ISE supernodes with the same latency (same datapath shape is
/// checked by the member structure at a higher level).
bool labels_match(const dfg::Node& p, const dfg::Node& t) {
  if (p.is_ise != t.is_ise) return false;
  if (p.is_ise) return p.ise.latency_cycles == t.ise.latency_cycles;
  return p.opcode == t.opcode;
}

class Matcher {
 public:
  Matcher(const dfg::Graph& pattern, const dfg::Graph& target,
          const MatchOptions& options)
      : pattern_(pattern), target_(target), options_(options) {}

  std::vector<std::vector<dfg::NodeId>> run() {
    const std::size_t pn = pattern_.num_nodes();
    if (pn == 0 || pn > target_.num_nodes()) return {};
    mapping_.assign(pn, dfg::kInvalidNode);
    used_.assign(target_.num_nodes(), false);
    order_ = match_order();
    backtrack(0);
    return std::move(results_);
  }

 private:
  /// Pattern nodes ordered so each (after the first) touches an already
  /// matched node — keeps the frontier connected and pruning effective.
  std::vector<dfg::NodeId> match_order() const {
    const std::size_t pn = pattern_.num_nodes();
    std::vector<bool> placed(pn, false);
    std::vector<dfg::NodeId> order;
    order.reserve(pn);
    auto degree = [&](dfg::NodeId v) {
      return pattern_.preds(v).size() + pattern_.succs(v).size();
    };
    while (order.size() < pn) {
      dfg::NodeId best = dfg::kInvalidNode;
      bool best_connected = false;
      for (dfg::NodeId v = 0; v < pn; ++v) {
        if (placed[v]) continue;
        bool connected = false;
        for (const dfg::NodeId u : pattern_.preds(v))
          connected = connected || placed[u];
        for (const dfg::NodeId u : pattern_.succs(v))
          connected = connected || placed[u];
        if (best == dfg::kInvalidNode ||
            (connected && !best_connected) ||
            (connected == best_connected && degree(v) > degree(best))) {
          best = v;
          best_connected = connected;
        }
      }
      placed[best] = true;
      order.push_back(best);
    }
    return order;
  }

  bool feasible(dfg::NodeId p, dfg::NodeId t) const {
    if (!labels_match(pattern_.node(p), target_.node(t))) return false;
    // Degree pruning: target must have at least the pattern's connectivity.
    if (target_.preds(t).size() < pattern_.preds(p).size()) return false;
    if (target_.succs(t).size() < pattern_.succs(p).size()) return false;
    // Adjacency consistency with already-mapped neighbours.
    for (const dfg::NodeId pp : pattern_.preds(p)) {
      const dfg::NodeId mapped = mapping_[pp];
      if (mapped != dfg::kInvalidNode && !target_.has_edge(mapped, t))
        return false;
    }
    for (const dfg::NodeId ps : pattern_.succs(p)) {
      const dfg::NodeId mapped = mapping_[ps];
      if (mapped != dfg::kInvalidNode && !target_.has_edge(t, mapped))
        return false;
    }
    return true;
  }

  bool backtrack(std::size_t depth) {  // returns true when budget exhausted
    if (steps_++ > options_.max_steps) return true;
    if (depth == order_.size()) {
      results_.push_back(mapping_);
      return options_.max_matches != 0 &&
             results_.size() >= options_.max_matches;
    }
    const dfg::NodeId p = order_[depth];
    for (dfg::NodeId t = 0; t < target_.num_nodes(); ++t) {
      if (used_[t] || !feasible(p, t)) continue;
      mapping_[p] = t;
      used_[t] = true;
      const bool done = backtrack(depth + 1);
      mapping_[p] = dfg::kInvalidNode;
      used_[t] = false;
      if (done) return true;
      if (options_.max_matches == 0 && !results_.empty()) return true;
    }
    return false;
  }

  const dfg::Graph& pattern_;
  const dfg::Graph& target_;
  MatchOptions options_;
  std::vector<dfg::NodeId> mapping_;
  std::vector<bool> used_;
  std::vector<dfg::NodeId> order_;
  std::vector<std::vector<dfg::NodeId>> results_;
  std::size_t steps_ = 0;
};

}  // namespace

std::vector<std::vector<dfg::NodeId>> find_matches(const dfg::Graph& pattern,
                                                   const dfg::Graph& target,
                                                   const MatchOptions& options) {
  Matcher m(pattern, target, options);
  return m.run();
}

bool is_subgraph_of(const dfg::Graph& pattern, const dfg::Graph& target) {
  MatchOptions opts;
  opts.max_matches = 0;  // existence only
  Matcher m(pattern, target, opts);
  return !m.run().empty();
}

}  // namespace isex::flow
