#include "core/candidate.hpp"

#include <limits>
#include <span>

#include "core/make_convex.hpp"
#include "util/assert.hpp"

namespace isex::core {
namespace {

/// Enforces the pipestage timing cap by shedding the member that most
/// reduces the datapath depth until the ASFU fits (then re-splits, since
/// removal can break connectivity or convexity).
std::vector<dfg::NodeSet> legalize_timing(const hw::GPlus& gplus,
                                          dfg::NodeSet piece,
                                          std::span<const int> taken,
                                          int max_latency_cycles,
                                          const dfg::Reachability& reach,
                                          hw::ClockSpec clock) {
  const dfg::Graph& graph = gplus.graph();
  auto depth_of = [&](const dfg::NodeSet& s) {
    return dfg::induced_critical_path(
        graph, gplus.topological_order(), s, [&](dfg::NodeId v) {
          return gplus.delays()[gplus.offset(v) +
                                static_cast<std::size_t>(taken[v])];
        });
  };
  while (piece.count() > 1 &&
         clock.cycles_for(depth_of(piece)) > max_latency_cycles) {
    dfg::NodeId best = dfg::kInvalidNode;
    double best_depth = std::numeric_limits<double>::max();
    piece.for_each([&](dfg::NodeId m) {
      dfg::NodeSet without = piece;
      without.erase(m);
      const double d = depth_of(without);
      if (d < best_depth) {
        best_depth = d;
        best = m;
      }
    });
    ISEX_ASSERT(best != dfg::kInvalidNode);
    piece.erase(best);
  }
  if (clock.cycles_for(depth_of(piece)) > max_latency_cycles) return {};
  return make_convex(graph, piece, reach);
}

}  // namespace

std::vector<IseCandidate> extract_candidates(const hw::GPlus& gplus,
                                             const isa::IsaFormat& format,
                                             std::span<const int> taken,
                                             const dfg::Reachability& reach,
                                             hw::ClockSpec clock) {
  const dfg::Graph& graph = gplus.graph();
  const std::size_t n = graph.num_nodes();
  ISEX_ASSERT(taken.size() == n);

  dfg::NodeSet hardware_set(n);
  for (dfg::NodeId v = 0; v < n; ++v) {
    if (taken[v] > 0) hardware_set.insert(v);
  }

  std::vector<IseCandidate> out;
  for (const dfg::NodeSet& cluster :
       dfg::weakly_connected_components(graph, hardware_set)) {
    for (const dfg::NodeSet& convex_piece : make_convex(graph, cluster, reach)) {
      for (dfg::NodeSet& port_piece :
           legalize_ports(graph, convex_piece, format, reach)) {
        std::vector<dfg::NodeSet> timed_pieces;
        if (format.max_ise_latency_cycles > 0) {
          timed_pieces = legalize_timing(gplus, std::move(port_piece), taken,
                                         format.max_ise_latency_cycles, reach,
                                         clock);
        } else {
          timed_pieces.push_back(std::move(port_piece));
        }
        for (dfg::NodeSet& piece : timed_pieces) {
          if (piece.count() < 2) continue;  // singleton cannot win a cycle
          // Timing trimming can re-expose port pressure; re-verify.
          if (dfg::count_inputs(graph, piece) > format.max_ise_inputs() ||
              dfg::count_outputs(graph, piece) > format.max_ise_outputs())
            continue;
          IseCandidate cand;
          cand.members = std::move(piece);
          cand.option.assign(taken.begin(), taken.end());
          cand.eval =
              hw::evaluate_asfu(gplus, cand.members, cand.option, clock);
          cand.in_count = dfg::count_inputs(graph, cand.members);
          cand.out_count = dfg::count_outputs(graph, cand.members);
          out.push_back(std::move(cand));
        }
      }
    }
  }
  return out;
}

}  // namespace isex::core
