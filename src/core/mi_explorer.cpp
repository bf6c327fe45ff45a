#include "core/mi_explorer.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <optional>

#include "core/ant_walk.hpp"
#include "core/candidate.hpp"
#include "core/merit.hpp"
#include "core/pheromone.hpp"
#include "dfg/analysis.hpp"
#include "dfg/collapsed_view.hpp"
#include "hwlib/gplus.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/hash.hpp"
#include "runtime/job_graph.hpp"
#include "runtime/pool_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/priority.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace isex::core {
namespace {

/// Schedule-length evaluation, memoized in the params' cache when one is
/// set.  The cache is a pure-function memo, so the returned makespan is
/// identical either way.
int evaluate_cycles(const sched::ListScheduler& scheduler,
                    const dfg::Graph& graph, const ExplorerParams& params) {
  return params.eval_cache != nullptr
             ? runtime::cached_schedule_cycles(*params.eval_cache, scheduler,
                                               graph)
             : scheduler.cycles(graph);
}

/// Per-worker working state for one candidate evaluation: the collapsed
/// overlay view plus the scheduler's flattened arrays.  thread_local so the
/// parallel_for jobs share nothing and every buffer is warm after the first
/// few candidates a worker scores — steady-state evaluations allocate
/// nothing.
struct CandidateEvalScratch {
  dfg::CollapsedView view;
  sched::SchedulerScratch sched;
};

CandidateEvalScratch& candidate_scratch() {
  thread_local CandidateEvalScratch scratch;
  return scratch;
}

/// Bucket bounds of `isex_ant_walk_tet_cycles`, in cycles.
constexpr std::array<double, 8> kWalkTetBounds = {4,  8,   16,  32,
                                                  64, 128, 256, 512};

/// The registry series each round publishes at its end, resolved once per
/// process: the round's ant walks, their schedule lengths and its
/// iteration count.
struct RoundMetrics {
  trace::Counter& walks;
  trace::Histogram& walk_tet;
  trace::Histogram& iterations;
};

const RoundMetrics& round_metrics() {
  static const RoundMetrics metrics = [] {
    trace::MetricsRegistry& registry = trace::MetricsRegistry::global();
    return RoundMetrics{
        registry.counter("isex_ant_walks_total"),
        registry.histogram("isex_ant_walk_tet_cycles",
                           {kWalkTetBounds.begin(), kWalkTetBounds.end()}),
        registry.histogram("isex_aco_iterations_per_round",
                           {5, 10, 25, 50, 100, 150, 200, 250})};
  }();
  return metrics;
}

/// A round's walk TETs per `isex_ant_walk_tet_cycles` bucket (+Inf last).
using TetBins = std::array<std::uint64_t, kWalkTetBounds.size() + 1>;

/// Everything one round's ACO iterations read but never write: the round's
/// graph and its derived analyses, the walker and merit engine, and the
/// round index for trace points.  Shared by every colony of the round.
struct RoundContext {
  const dfg::Graph& graph;
  const AntWalk& walker;
  const MeritEngine& merit;
  const std::vector<double>& sp;
  const dfg::PathInfo& path;
  const ExplorerParams& params;
  int round = 0;
};

/// One colony's working storage: the ant walk's buffers, the grouping's
/// per-iteration state, the reorder flags of the trail update, and the
/// walk's critical set with its worklist.  Owned by explore() rather than
/// by the per-round chains, so the buffers survive every round and a
/// warmed-up iteration allocates nothing.
struct ColonyScratch {
  WalkScratch walk;
  GroupingScratch grouping;
  std::vector<bool> reordered;
  dfg::NodeSet critical;
  std::vector<dfg::NodeId> critical_worklist;
};

/// One colony's ACO chain: a private pheromone state plus the loop-carried
/// variables of the iteration loop (previous pick order, incumbent best ant,
/// running TET statistics).  step() is the exact body of the paper's serial
/// iteration loop, factored out so the single-colony path (which runs one
/// chain with the caller's Rng — byte-identical to every release before the
/// colonies knob existed) and the multi-colony shards (one chain per colony
/// on private split streams) execute the same per-iteration code.
struct AcoChain {
  AcoChain(const hw::GPlus& gplus, const ExplorerParams& params,
           std::size_t num_nodes)
      : pheromone(gplus, params), prev_order(num_nodes, -1) {}

  PheromoneState pheromone;
  std::vector<int> prev_order;
  std::vector<int> best_chosen;
  /// Best (lowest) TET any of this chain's ants achieved this round.
  int tet_old = std::numeric_limits<int>::max();
  int worst_tet = 0;
  long long sum_tet = 0;
  /// This round's walk TETs per metric bucket; published at round end
  /// with `iterations` and `sum_tet`, so a walk touches no shared line.
  TetBins tet_bins{};
  /// Iterations completed (== ants walked) this round.
  int iterations = 0;
  /// Per-colony trace points, drained into ExplorationResult::trace in
  /// colony-index order at round end.
  std::vector<IterationTrace> trace;

  /// One ACO iteration: ant walk, trail update, Hardware-Grouping merit
  /// update, incumbent update, optional trace point.  Returns
  /// pheromone.converged() after the step.  `scratch` is caller-owned so it
  /// survives across rounds (chains do not).
  bool step(const RoundContext& ctx, Rng& rng, int colony,
            ColonyScratch& scratch) {
    const dfg::Graph& current = ctx.graph;
    const WalkResult& walk =
        ctx.walker.run(pheromone, ctx.sp, rng, scratch.walk);
    std::vector<bool>& reordered = scratch.reordered;
    const bool improved = walk.tet <= tet_old;
    worst_tet = std::max(worst_tet, walk.tet);
    sum_tet += walk.tet;
    ++tet_bins[static_cast<std::size_t>(
        std::lower_bound(kWalkTetBounds.begin(), kWalkTetBounds.end(),
                         walk.tet) -
        kWalkTetBounds.begin())];

    reordered.assign(current.num_nodes(), false);
    for (dfg::NodeId v = 0; v < current.num_nodes(); ++v)
      reordered[v] = prev_order[v] >= 0 && walk.order[v] < prev_order[v];

    pheromone.update_trails(walk.chosen, reordered, improved);

    walk_critical_nodes(current, walk, scratch.critical,
                        scratch.critical_worklist);
    MeritInputs inputs;
    inputs.chosen = walk.chosen;
    inputs.critical = &scratch.critical;
    inputs.path = &ctx.path;
    inputs.tet = walk.tet;
    ctx.merit.update(pheromone, inputs, scratch.grouping);

    if (improved) {
      tet_old = walk.tet;
      best_chosen = walk.chosen;
    }
    prev_order = walk.order;
    ++iterations;
    if (ctx.params.collect_trace) {
      IterationTrace t;
      t.round = ctx.round;
      t.colony = colony;
      t.iteration = iterations - 1;
      t.tet = walk.tet;
      t.best_tet = tet_old;
      t.worst_tet = worst_tet;
      t.mean_tet = static_cast<double>(sum_tet) / iterations;
      t.converged_fraction = pheromone.converged_fraction();
      t.entropy = pheromone.decision_entropy();
      t.max_option_probability = pheromone.min_best_probability();
      t.p_end = ctx.params.p_end;
      t.ants = iterations;
      if (ctx.params.eval_cache != nullptr)
        t.cache_hit_rate = ctx.params.eval_cache->stats().hit_rate();
      trace.push_back(t);
    }
    return pheromone.converged();
  }
};

}  // namespace

double ExplorationResult::total_area() const {
  double area = 0.0;
  for (const ExploredIse& ise : ises) area += ise.eval.area;
  return area;
}

MultiIssueExplorer::MultiIssueExplorer(sched::MachineConfig machine,
                                       isa::IsaFormat format,
                                       const hw::HwLibrary& library,
                                       ExplorerParams params,
                                       hw::ClockSpec clock)
    : machine_(machine),
      format_(format),
      library_(library),
      params_(params),
      clock_(clock) {}

ExplorationResult MultiIssueExplorer::explore(const dfg::Graph& block,
                                              Rng& rng) const {
  const trace::Span explore_span("mi_explore");
  ExplorationResult result;
  const sched::ListScheduler scheduler(machine_);
  if (block.empty()) return result;

  RewrittenBlock rewritten(block);
  const dfg::Graph& current = rewritten.graph();
  // Effective colony count: min(colonies, max_iterations) so every colony
  // walks at least once; 1 is the paper's serial loop.
  const int k_eff =
      std::max(1, std::min(params_.colonies, params_.max_iterations));
  // One scratch per colony per explore call: chains are rebuilt every round
  // — their pheromone state is shaped by the round's G+ — but these buffers
  // persist, so every iteration of every round is allocation-free after
  // warm-up.  Colony c touches only slot c.
  std::vector<ColonyScratch> scratches(static_cast<std::size_t>(k_eff));

  result.base_cycles = evaluate_cycles(scheduler, current, params_);
  int current_cycles = result.base_cycles;

  for (int round = 0; round < params_.max_rounds; ++round) {
    const trace::Span round_span("mi_explore.round");
    const hw::GPlus gplus(current, library_);

    // A block with no hardware-capable node can never yield an ISE.
    bool any_hardware = false;
    for (dfg::NodeId v = 0; v < current.num_nodes() && !any_hardware; ++v)
      any_hardware = gplus.hardware_capable(v);
    if (!any_hardware) break;

    const dfg::Reachability reach(current);
    const dfg::PathInfo path = dfg::longest_path(
        current, [&](dfg::NodeId v) { return gplus.software_cycles(v); });

    // Scheduling-priority term, scaled to the merit scale (Eq. 1's λ·SP).
    std::vector<double> sp =
        sched::compute_priorities(current, params_.sp_priority);
    double sp_max = 0.0;
    for (const double s : sp) sp_max = std::max(sp_max, s);
    if (sp_max > 0.0) {
      for (double& s : sp) s = s / sp_max * params_.merit_scale;
    }

    const AntWalk walker(gplus, machine_, params_, clock_);
    const MeritEngine merit(gplus, format_, params_, reach, clock_);
    const RoundContext ctx{current, walker, merit, sp, path, params_, round};

    // Taken option per node after convergence, and the round's walks
    // summed over its chains.
    std::vector<int> taken(current.num_nodes());
    int iterations = 0;
    long long sum_tet = 0;
    TetBins tet_bins{};
    const auto tally = [&](const AcoChain& chain) {
      iterations += chain.iterations;
      sum_tet += chain.sum_tet;
      for (std::size_t b = 0; b < tet_bins.size(); ++b)
        tet_bins[b] += chain.tet_bins[b];
    };

    if (k_eff == 1) {
      // Serial chain with the caller's Rng — the paper's loop, byte-identical
      // to the pre-colonies explorer (golden digests pin this).
      AcoChain chain(gplus, params_, current.num_nodes());
      while (chain.iterations < params_.max_iterations) {
        if (chain.step(ctx, rng, /*colony=*/0, scratches[0]))
          break;
      }
      tally(chain);
      if (params_.collect_trace)
        result.trace.insert(result.trace.end(), chain.trace.begin(),
                            chain.trace.end());
      for (dfg::NodeId v = 0; v < current.num_nodes(); ++v)
        taken[v] = static_cast<int>(chain.pheromone.best_option(v));
    } else {
      // Multi-colony sharding (docs/PERFORMANCE.md): the round's ant budget
      // splits across k_eff colonies, each walking a private chain on its
      // own serially pre-split RNG stream.  Colonies run concurrently on the
      // runtime pool and synchronize at a merge barrier every merge_interval
      // iterations; convergence (P_END) is tested on the merged state.  All
      // cross-colony reductions are index-ordered, so the outcome is a pure
      // function of (seed, colonies, merge_interval) — a search parameter
      // like the seed, bit-identical at any thread count.
      using Clock = std::chrono::steady_clock;
      runtime::ThreadPool& pool = runtime::ThreadPool::default_pool();
      const int budget = (params_.max_iterations + k_eff - 1) / k_eff;
      const int interval = std::max(1, params_.merge_interval);

      std::vector<Rng> streams = rng.split_n(static_cast<std::size_t>(k_eff));
      std::vector<AcoChain> chains;
      chains.reserve(static_cast<std::size_t>(k_eff));
      for (int c = 0; c < k_eff; ++c)
        chains.emplace_back(gplus, params_, current.num_nodes());

      PheromoneState merged(gplus, params_);
      while (true) {
        // Epoch: each colony advances up to merge_interval iterations
        // (bounded by its budget share), breaking early once its own
        // pheromone state converges.  Colony c touches only its own chain,
        // stream, and scratch — nothing is shared until the barrier.
        const std::optional<runtime::ParallelTiming> timing =
            pool.parallel_for(
                static_cast<std::size_t>(k_eff), [&](std::size_t c) {
                  AcoChain& chain = chains[c];
                  for (int s = 0; s < interval && chain.iterations < budget;
                       ++s) {
                    if (chain.step(ctx, streams[c], static_cast<int>(c),
                                   scratches[c]))
                      break;
                  }
                });
        const auto merge_start = timing ? Clock::now() : Clock::time_point{};

        // Barrier: index-ordered merge, broadcast, convergence test on the
        // merged state.  The merge is the section's serial cost.
        PheromoneMerger merger(static_cast<std::size_t>(k_eff), params_);
        for (std::size_t c = 0; c < chains.size(); ++c)
          merger.submit(c, chains[c].pheromone, chains[c].tet_old,
                        chains[c].best_chosen);
        merger.finalize_into(merged);
        bool exhausted = true;
        for (AcoChain& chain : chains) {
          chain.pheromone = merged;
          exhausted = exhausted && chain.iterations >= budget;
        }
        if (timing) {
          const auto merge_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - merge_start)
                  .count());
          runtime::record_parallel_section(
              "explore.colonies", merge_ns, timing->wall_ns,
              static_cast<std::uint64_t>(k_eff), timing->task_ns_sum,
              timing->task_ns_max);
        }
        if (merged.converged() || exhausted) break;
      }

      for (const AcoChain& chain : chains) tally(chain);
      if (params_.collect_trace) {
        for (const AcoChain& chain : chains)
          result.trace.insert(result.trace.end(), chain.trace.begin(),
                              chain.trace.end());
      }
      for (dfg::NodeId v = 0; v < current.num_nodes(); ++v)
        taken[v] = static_cast<int>(merged.best_option(v));
    }

    result.total_iterations += iterations;
    ++result.rounds;
    const RoundMetrics& metrics = round_metrics();
    metrics.walks.inc(iterations);
    metrics.walk_tet.observe_binned(tet_bins, static_cast<double>(sum_tet));
    metrics.iterations.observe(iterations);
    trace::Tracer::global().record_counter("aco.iterations", iterations);

    std::vector<IseCandidate> candidates;
    {
      // Make-Convex + port legalization over the converged taken options.
      const trace::Span span("extract_candidates");
      candidates = extract_candidates(gplus, format_, taken, reach, clock_);
    }
    if (candidates.empty()) break;

    // Score every candidate concurrently on the runtime pool.  Each job
    // schedules a copy-free dfg::CollapsedView overlay of (current, members,
    // IseInfo) into per-thread scratch — no collapsed Graph is materialized
    // (the winner alone is committed below) — and, when the params carry a
    // cache, memoizes the makespan under the candidate's canonical
    // signature, so a candidate re-surfacing in a later round or repeat
    // skips the schedule entirely.  Jobs are pure functions of their index;
    // only the index-ordered reduction below picks the winner, so the
    // result is identical at any --jobs width.
    std::vector<int> cycles_after(candidates.size());
    {
      const trace::Span eval_span("evaluate_candidates");
      runtime::EvalCache* const cache = params_.eval_cache;
      const runtime::Key128 base_digest =
          cache != nullptr ? runtime::graph_digest(current) : runtime::Key128{};
      runtime::ThreadPool::default_pool().parallel_for(
          candidates.size(), [&](std::size_t c) {
            const IseCandidate& cand = candidates[c];
            const dfg::IseInfo info = ise_info(cand);
            const auto schedule_view = [&]() {
              CandidateEvalScratch& s = candidate_scratch();
              s.view.assign(current, cand.members, info);
              return scheduler.cycles(s.view, s.sched);
            };
            cycles_after[c] =
                cache != nullptr
                    ? cache->get_or_compute(
                          runtime::candidate_key(base_digest, cand.members,
                                                 info, machine_,
                                                 scheduler.priority()),
                          schedule_view)
                    : schedule_view();
          });
    }

    // Commit the candidate with the largest scheduled gain; require > 0.
    // Ties break by smaller ASFU area, then by lowest candidate index: the
    // scan runs in ascending index order and replaces the incumbent only
    // when better_candidate() strictly improves, so a full (gain, area) tie
    // deterministically keeps the earlier candidate — the invariant the
    // parallel evaluation above relies on.
    int best_gain = 0;
    double best_area = std::numeric_limits<double>::max();
    int best_index = -1;
    int best_cycles_after = current_cycles;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const int gain = current_cycles - cycles_after[c];
      if (gain <= 0) continue;
      if (better_candidate(gain, candidates[c].eval.area, best_gain,
                           best_area)) {
        best_gain = gain;
        best_area = candidates[c].eval.area;
        best_index = static_cast<int>(c);
        best_cycles_after = cycles_after[c];
      }
    }
    if (best_index < 0) break;  // no valid operation left (§4.0 step 3)

    result.ises.push_back(rewritten.commit(
        candidates[static_cast<std::size_t>(best_index)], best_gain));
    current_cycles = best_cycles_after;
  }

  result.final_cycles = current_cycles;
  return result;
}

RewrittenBlock::RewrittenBlock(const dfg::Graph& block)
    : graph_(block),
      block_nodes_(block.num_nodes()),
      origin_(block_nodes_) {
  for (dfg::NodeId v = 0; v < block_nodes_; ++v)
    origin_[v] = dfg::NodeSet::of(block_nodes_, {v});
}

void RewrittenBlock::collapse(const ExploredIse& ise) {
  dfg::NodeSet members(graph_.num_nodes());
  for (dfg::NodeId v = 0; v < graph_.num_nodes(); ++v)
    if (origin_[v].intersects(ise.original_nodes)) members.insert(v);
  apply(members, ise_info(ise));
}

dfg::NodeId RewrittenBlock::apply(const dfg::NodeSet& members,
                                  const dfg::IseInfo& info) {
  std::vector<dfg::NodeId> old_to_new;
  dfg::Graph next = graph_.collapse(members, info, &old_to_new);
  std::vector<dfg::NodeSet> next_origin(next.num_nodes(),
                                        dfg::NodeSet(block_nodes_));
  for (dfg::NodeId v = 0; v < graph_.num_nodes(); ++v)
    next_origin[old_to_new[v]] |= origin_[v];
  graph_ = std::move(next);
  origin_ = std::move(next_origin);
  return old_to_new[members.first()];
}

ExplorationResult MultiIssueExplorer::explore_best_of(const dfg::Graph& block,
                                                      int repeats,
                                                      Rng& rng) const {
  ISEX_ASSERT(repeats >= 1);
  // Deterministic fan-out (§5.1 best-of-5): child streams are derived
  // serially in repeat order — exactly what a serial loop of rng.split()
  // calls would do — then the repeats run concurrently and the best-of
  // reduction walks the attempts back in repeat order.  Same seed, same
  // result, any thread count.
  runtime::ThreadPool& pool = runtime::ThreadPool::default_pool();
  std::vector<ExplorationResult> attempts = runtime::deterministic_fanout(
      pool, rng, static_cast<std::size_t>(repeats),
      [&](std::size_t, Rng& child) { return explore(block, child); },
      /*section=*/"explore.best_of");
  return pick_best(std::move(attempts));
}

ExplorationResult MultiIssueExplorer::pick_best(
    std::vector<ExplorationResult> attempts) {
  ISEX_ASSERT(!attempts.empty());
  std::size_t best = 0;
  for (std::size_t r = 1; r < attempts.size(); ++r) {
    const bool better =
        attempts[r].final_cycles < attempts[best].final_cycles ||
        (attempts[r].final_cycles == attempts[best].final_cycles &&
         attempts[r].total_area() < attempts[best].total_area());
    if (better) best = r;
  }
  return std::move(attempts[best]);
}

}  // namespace isex::core
