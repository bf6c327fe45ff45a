// Stable structural fingerprints for evaluation memoization.
//
// The schedule-evaluation cache (eval_cache.hpp) keys on *what the list
// scheduler actually reads*: the DFG structure (opcodes, ISE supernode
// payloads, edges, live-in/live-out annotations) plus the machine
// configuration and priority function.  Fingerprints are 64-bit mixes
// computed from two independent seeds and combined into a 128-bit key, so an
// accidental collision — which would silently return the wrong cycle count
// and break the determinism contract — is negligible in any realistic run.
//
// Node labels are deliberately excluded: they are cosmetic and hashing them
// would split otherwise-identical schedules into distinct cache lines.
#pragma once

#include <cstdint>
#include <vector>

#include "dfg/graph.hpp"
#include "sched/machine_config.hpp"
#include "sched/priority.hpp"

namespace isex::runtime {

/// SplitMix64-style accumulator; stable across platforms and runs (no
/// pointer or address-dependent input is ever mixed in).
class Hash64 {
 public:
  explicit Hash64(std::uint64_t seed = 0) : h_(seed ^ 0x9e3779b97f4a7c15ULL) {}

  void mix(std::uint64_t x) {
    h_ += x + 0x9e3779b97f4a7c15ULL;
    h_ = (h_ ^ (h_ >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h_ = (h_ ^ (h_ >> 27)) * 0x94d049bb133111ebULL;
    h_ ^= h_ >> 31;
  }

  void mix_double(double x);

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

/// 128-bit cache key (two independently seeded 64-bit fingerprints).
struct Key128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Key128&, const Key128&) = default;
};

struct Key128Hash {
  std::size_t operator()(const Key128& k) const noexcept {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Structural fingerprint of a DFG: nodes (opcode / ISE payload), edges,
/// extern-input value ids, live-out flags.  Labels are excluded.
std::uint64_t fingerprint(const dfg::Graph& graph, std::uint64_t seed);

/// Fingerprint of the scheduler-visible machine model: issue width, register
/// ports, per-class FU counts.
std::uint64_t fingerprint(const sched::MachineConfig& machine,
                          std::uint64_t seed);

/// Key for one schedule evaluation: (canonical DFG, machine, priority).
Key128 schedule_key(const dfg::Graph& graph,
                    const sched::MachineConfig& machine,
                    sched::PriorityKind priority);

/// Reusable two-seed digest of a base graph.  Computed once per round, then
/// combined with per-candidate data by candidate_key() — O(V + E) once
/// instead of per candidate.
Key128 graph_digest(const dfg::Graph& graph);

/// Canonical signature of one Make-Convex candidate evaluation:
/// (base-graph digest, member set, ISE payload, machine, priority).  The
/// scheduled makespan of base.collapse(members, info) is a pure function of
/// this tuple, so identical candidates re-surfacing across walks, rounds,
/// and explore_best_of repeats hit the eval cache without re-fingerprinting
/// a freshly collapsed graph.  Keys live in a separate domain from
/// schedule_key (distinct seeds), so the two families cannot alias.
Key128 candidate_key(const Key128& base_digest, const dfg::NodeSet& members,
                     const dfg::IseInfo& info,
                     const sched::MachineConfig& machine,
                     sched::PriorityKind priority);

// ---------------------------------------------------------------------------
// Canonical (node-id-independent) fingerprints.
//
// fingerprint()/graph_digest()/candidate_key() above mix raw node ids, so two
// structurally identical blocks whose statements were merely emitted in a
// different order — the normal case for isomorphic candidates lifted from
// different kernels — get unrelated keys.  The canonical family below labels
// every node by iterative structural refinement (Weisfeiler–Leman style:
// start from local shape — opcode, ISE payload, liveness, extern value ids,
// degree — then repeatedly fold in operand-ordered predecessor labels and the
// sorted multiset of successor labels) and digests the *sorted* final labels,
// so the result is invariant under any renumbering that preserves structure
// and operand order.
//
// These keys are for *detection* (isomorphism telemetry, portfolio dedup
// accounting, regression tests) — never for sharing memoized makespans: the
// list scheduler breaks priority ties by node id, so isomorphic-but-
// renumbered graphs may legally schedule to different cycle counts.  Value-
// carrying caches stay on the exact keys above.

/// Per-node canonical labels plus the whole-graph canonical digest.
struct CanonicalLabeling {
  Key128 digest;
  /// Refined label per node, two independent streams (lo/hi key halves).
  std::vector<std::uint64_t> lo;
  std::vector<std::uint64_t> hi;
};

CanonicalLabeling canonical_labeling(const dfg::Graph& graph);

/// Convenience: canonical_labeling(graph).digest.
Key128 canonical_graph_digest(const dfg::Graph& graph);

}  // namespace isex::runtime
