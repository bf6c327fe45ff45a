// Random-DAG generator shared by bench binaries (mirrors the test helper
// without depending on the test tree).
#pragma once

#include <string>
#include <utility>

#include "dfg/graph.hpp"
#include "util/rng.hpp"

namespace isex::benchx {

inline dfg::Graph random_dag(std::size_t n, Rng& rng, double edge_prob = 0.6) {
  static constexpr isa::Opcode kOps[] = {
      isa::Opcode::kAddu, isa::Opcode::kXor,  isa::Opcode::kAnd,
      isa::Opcode::kSrl,  isa::Opcode::kSubu, isa::Opcode::kOr,
      isa::Opcode::kSll,  isa::Opcode::kSltu,
  };
  dfg::Graph g;
  for (std::size_t i = 0; i < n; ++i) {
    // Appended: GCC 12 misreports "r" + std::to_string(i) (-Wrestrict).
    std::string label = "r";
    label += std::to_string(i);
    const auto v = g.add_node(kOps[i % std::size(kOps)], std::move(label));
    int preds = 0;
    if (i > 0) {
      for (int k = 0; k < 2; ++k) {
        if (rng.next_double() < edge_prob) {
          const auto p = static_cast<dfg::NodeId>(
              rng.next_below(static_cast<std::uint32_t>(i)));
          if (!g.has_edge(p, v)) {
            g.add_edge(p, v);
            ++preds;
          }
        }
      }
    }
    g.set_extern_inputs(v, preds >= 2 ? 0 : 2 - preds);
  }
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    if (g.succs(v).empty()) g.set_live_out(v, true);
  return g;
}

}  // namespace isex::benchx
