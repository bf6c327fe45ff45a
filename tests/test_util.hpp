// Shared graph builders for the test suite: canonical shapes (chain,
// diamond, fork) and a seeded random-DAG generator for property tests.
#pragma once

#include <string_view>
#include <vector>

#include "dfg/graph.hpp"
#include "isa/opcode.hpp"
#include "isa/tac_parser.hpp"
#include "util/rng.hpp"

namespace isex::testing {

/// The node of the statement that defines `name` in a parsed block, or
/// kInvalidNode when no statement does.
inline dfg::NodeId defined_node(const isa::ParsedBlock& block,
                                std::string_view name) {
  for (const isa::TacStatement& s : block.statements)
    if (s.dest == name) return s.node;
  return dfg::kInvalidNode;
}

/// Linear chain v0 -> v1 -> ... of `length` nodes, all `op`.
inline dfg::Graph make_chain(std::size_t length,
                             isa::Opcode op = isa::Opcode::kAddu) {
  dfg::Graph g;
  dfg::NodeId prev = dfg::kInvalidNode;
  for (std::size_t i = 0; i < length; ++i) {
    const dfg::NodeId v = g.add_node(op, "n" + std::to_string(i));
    if (prev != dfg::kInvalidNode) {
      g.add_edge(prev, v);
    } else {
      g.set_extern_inputs(v, 2);
    }
    prev = v;
  }
  if (prev != dfg::kInvalidNode) g.set_live_out(prev, true);
  return g;
}

/// Diamond: a -> {b, c} -> d.
inline dfg::Graph make_diamond(isa::Opcode op = isa::Opcode::kXor) {
  dfg::Graph g;
  const auto a = g.add_node(op, "a");
  const auto b = g.add_node(op, "b");
  const auto c = g.add_node(op, "c");
  const auto d = g.add_node(op, "d");
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.set_extern_inputs(a, 2);
  g.set_live_out(d, true);
  return g;
}

/// `width` independent 2-node chains (high ILP, no cross dependences).
inline dfg::Graph make_parallel_pairs(std::size_t width,
                                      isa::Opcode op = isa::Opcode::kAddu) {
  dfg::Graph g;
  for (std::size_t i = 0; i < width; ++i) {
    const auto a = g.add_node(op, "a" + std::to_string(i));
    const auto b = g.add_node(op, "b" + std::to_string(i));
    g.add_edge(a, b);
    g.set_extern_inputs(a, 2);
    g.set_live_out(b, true);
  }
  return g;
}

/// Random DAG: `n` nodes; each node gets up to 2 predecessors drawn from
/// earlier nodes with probability `edge_prob`.  Opcodes cycle through an
/// ISE-eligible mix.  Sinks are live-out; sources get 2 extern inputs.
inline dfg::Graph make_random_dag(std::size_t n, Rng& rng,
                                  double edge_prob = 0.6) {
  static constexpr isa::Opcode kOps[] = {
      isa::Opcode::kAddu, isa::Opcode::kXor,  isa::Opcode::kAnd,
      isa::Opcode::kSrl,  isa::Opcode::kSubu, isa::Opcode::kOr,
      isa::Opcode::kSll,  isa::Opcode::kSltu,
  };
  dfg::Graph g;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = g.add_node(kOps[i % std::size(kOps)], "r" + std::to_string(i));
    int preds = 0;
    if (i > 0) {
      for (int k = 0; k < 2; ++k) {
        if (rng.next_double() < edge_prob) {
          const auto p = static_cast<dfg::NodeId>(rng.next_below(
              static_cast<std::uint32_t>(i)));
          if (!g.has_edge(p, v)) {
            g.add_edge(p, v);
            ++preds;
          }
        }
      }
    }
    g.set_extern_inputs(v, 2 - preds > 0 ? 2 - preds : 0);
  }
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    if (g.succs(v).empty()) g.set_live_out(v, true);
  return g;
}

}  // namespace isex::testing
