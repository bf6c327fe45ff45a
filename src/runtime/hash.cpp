#include "runtime/hash.hpp"

#include <algorithm>
#include <bit>

namespace isex::runtime {

void Hash64::mix_double(double x) {
  // +0.0 and -0.0 schedule identically; canonicalize before taking bits.
  if (x == 0.0) x = 0.0;
  mix(std::bit_cast<std::uint64_t>(x));
}

std::uint64_t fingerprint(const dfg::Graph& graph, std::uint64_t seed) {
  Hash64 h(seed);
  h.mix(graph.num_nodes());
  for (dfg::NodeId v = 0; v < graph.num_nodes(); ++v) {
    const dfg::Node& node = graph.node(v);
    h.mix(static_cast<std::uint64_t>(node.opcode));
    h.mix(node.is_ise ? 1 : 0);
    if (node.is_ise) {
      h.mix(static_cast<std::uint64_t>(node.ise.latency_cycles));
      h.mix_double(node.ise.area);
      h.mix(static_cast<std::uint64_t>(node.ise.num_inputs));
      h.mix(static_cast<std::uint64_t>(node.ise.num_outputs));
    }
    // Mixed only when annotated (tagged so a latency of 0 cannot alias):
    // unannotated graphs keep their historic digests while the scheduler
    // input — which mem_latency is — still keys the evaluation caches.
    if (node.mem_latency > 0) {
      h.mix(0x6d656d6c61746379ULL);  // "memlatcy" tag
      h.mix(static_cast<std::uint64_t>(node.mem_latency));
    }
    const auto preds = graph.preds(v);
    h.mix(preds.size());
    for (const dfg::NodeId p : preds) h.mix(p);
    const auto extern_ids = graph.extern_input_ids(v);
    h.mix(extern_ids.size());
    for (const int id : extern_ids) h.mix(static_cast<std::uint64_t>(id));
    h.mix(graph.live_out(v) ? 1 : 0);
  }
  return h.value();
}

std::uint64_t fingerprint(const sched::MachineConfig& machine,
                          std::uint64_t seed) {
  Hash64 h(seed);
  h.mix(static_cast<std::uint64_t>(machine.issue_width));
  h.mix(static_cast<std::uint64_t>(machine.reg_file.read_ports));
  h.mix(static_cast<std::uint64_t>(machine.reg_file.write_ports));
  for (const int fu : machine.fu_counts) h.mix(static_cast<std::uint64_t>(fu));
  return h.value();
}

Key128 schedule_key(const dfg::Graph& graph,
                    const sched::MachineConfig& machine,
                    sched::PriorityKind priority) {
  Key128 key;
  // Two independent seeds per half so a single-stream collision cannot alias
  // two distinct (graph, machine, priority) triples.
  Hash64 lo(0x517cc1b727220a95ULL);
  lo.mix(fingerprint(graph, 0xa0761d6478bd642fULL));
  lo.mix(fingerprint(machine, 0xe7037ed1a0b428dbULL));
  lo.mix(static_cast<std::uint64_t>(priority));
  key.lo = lo.value();
  Hash64 hi(0x8ebc6af09c88c6e3ULL);
  hi.mix(fingerprint(graph, 0x589965cc75374cc3ULL));
  hi.mix(fingerprint(machine, 0x1d8e4e27c47d124fULL));
  hi.mix(static_cast<std::uint64_t>(priority));
  key.hi = hi.value();
  return key;
}

Key128 graph_digest(const dfg::Graph& graph) {
  return Key128{fingerprint(graph, 0x2545f4914f6cdd1dULL),
                fingerprint(graph, 0x9e6c63d0876a9a47ULL)};
}

Key128 candidate_key(const Key128& base_digest, const dfg::NodeSet& members,
                     const dfg::IseInfo& info,
                     const sched::MachineConfig& machine,
                     sched::PriorityKind priority) {
  const auto mix_candidate = [&](Hash64& h) {
    h.mix(members.universe());
    for (const std::uint64_t w : members.words()) h.mix(w);
    h.mix(static_cast<std::uint64_t>(info.latency_cycles));
    h.mix_double(info.area);
    h.mix(static_cast<std::uint64_t>(info.num_inputs));
    h.mix(static_cast<std::uint64_t>(info.num_outputs));
    h.mix(static_cast<std::uint64_t>(priority));
  };
  Key128 key;
  Hash64 lo(0x6a09e667f3bcc909ULL);  // domain-separates from schedule_key
  lo.mix(base_digest.lo);
  mix_candidate(lo);
  lo.mix(fingerprint(machine, 0xbb67ae8584caa73bULL));
  key.lo = lo.value();
  Hash64 hi(0x3c6ef372fe94f82bULL);
  hi.mix(base_digest.hi);
  mix_candidate(hi);
  hi.mix(fingerprint(machine, 0xa54ff53a5f1d36f1ULL));
  key.hi = hi.value();
  return key;
}

namespace {

/// One finished mix step: compress an accumulated tuple into a 64-bit label.
std::uint64_t squash(Hash64 h) { return h.value(); }

/// Iteratively refined structural labels for one seed stream.  The initial
/// label is local shape only; each round folds in operand-ordered
/// predecessor labels and the *sorted* successor labels (successor list
/// order is an id artifact, operand order is semantics).  The fixpoint is
/// reached within the graph's depth; 32 rounds covers any realistic block
/// and keeps the cost linear.
std::vector<std::uint64_t> refined_labels(const dfg::Graph& graph,
                                          std::uint64_t seed) {
  const std::size_t n = graph.num_nodes();
  std::vector<std::uint64_t> labels(n);
  for (dfg::NodeId v = 0; v < n; ++v) {
    const dfg::Node& node = graph.node(v);
    Hash64 h(seed);
    h.mix(static_cast<std::uint64_t>(node.opcode));
    h.mix(node.is_ise ? 1 : 0);
    if (node.is_ise) {
      h.mix(static_cast<std::uint64_t>(node.ise.latency_cycles));
      h.mix_double(node.ise.area);
      h.mix(static_cast<std::uint64_t>(node.ise.num_inputs));
      h.mix(static_cast<std::uint64_t>(node.ise.num_outputs));
    }
    if (node.mem_latency > 0) {
      h.mix(0x6d656d6c61746379ULL);  // same conditional rule as fingerprint()
      h.mix(static_cast<std::uint64_t>(node.mem_latency));
    }
    const auto extern_ids = graph.extern_input_ids(v);
    h.mix(extern_ids.size());
    for (const int id : extern_ids) h.mix(static_cast<std::uint64_t>(id));
    h.mix(graph.live_out(v) ? 1 : 0);
    h.mix(graph.preds(v).size());
    h.mix(graph.succs(v).size());
    labels[v] = squash(h);
  }

  const std::size_t rounds = std::min<std::size_t>(n, 32);
  std::vector<std::uint64_t> next(n);
  std::vector<std::uint64_t> succ_scratch;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (dfg::NodeId v = 0; v < n; ++v) {
      Hash64 h(seed ^ (0x9e3779b97f4a7c15ULL + round));
      h.mix(labels[v]);
      const auto preds = graph.preds(v);
      h.mix(preds.size());
      for (const dfg::NodeId p : preds) h.mix(labels[p]);
      const auto succs = graph.succs(v);
      succ_scratch.assign(succs.begin(), succs.end());
      std::sort(succ_scratch.begin(), succ_scratch.end(),
                [&](dfg::NodeId a, dfg::NodeId b) {
                  return labels[a] < labels[b];
                });
      h.mix(succ_scratch.size());
      for (const dfg::NodeId s : succ_scratch) h.mix(labels[s]);
      next[v] = squash(h);
    }
    labels.swap(next);
  }
  return labels;
}

std::uint64_t digest_of_labels(const std::vector<std::uint64_t>& labels,
                               std::uint64_t seed) {
  std::vector<std::uint64_t> sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  Hash64 h(seed);
  h.mix(sorted.size());
  for (const std::uint64_t label : sorted) h.mix(label);
  return h.value();
}

}  // namespace

CanonicalLabeling canonical_labeling(const dfg::Graph& graph) {
  CanonicalLabeling out;
  // Own seed constants: the canonical family must never alias the exact
  // digest domains above.
  out.lo = refined_labels(graph, 0x71c72e134d03df39ULL);
  out.hi = refined_labels(graph, 0xd6e8feb86659fd93ULL);
  out.digest.lo = digest_of_labels(out.lo, 0x243f6a8885a308d3ULL);
  out.digest.hi = digest_of_labels(out.hi, 0x13198a2e03707344ULL);
  return out;
}

Key128 canonical_graph_digest(const dfg::Graph& graph) {
  return canonical_labeling(graph).digest;
}

}  // namespace isex::runtime
