#include "flow/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <utility>

#include "flow/validate.hpp"
#include "runtime/hash.hpp"
#include "runtime/job_graph.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace isex::flow {
namespace {

/// The flat exploration batch after job-level dedup: one block and one
/// serially pre-derived RNG stream per unique job, largest block first.
struct UniqueJobs {
  std::vector<const dfg::Graph*> graphs;
  std::vector<Rng> streams;
};

template <typename Explorer>
std::vector<core::ExplorationResult> explore_unique_jobs(
    const Explorer& explorer, const UniqueJobs& jobs,
    std::uint64_t serial_ns) {
  return runtime::fanout_streams(
      runtime::ThreadPool::default_pool(), jobs.streams,
      [&](std::size_t i, Rng& rng) {
        return explorer.explore(*jobs.graphs[i], rng);
      },
      "flow.explore_hot_blocks", serial_ns);
}

runtime::CacheStats stats_delta(const runtime::CacheStats& after,
                                const runtime::CacheStats& before) {
  runtime::CacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.insertions = after.insertions - before.insertions;
  d.evictions = after.evictions - before.evictions;
  return d;
}

using KeyPair = std::pair<std::uint64_t, std::uint64_t>;

KeyPair key_pair(const runtime::Key128& key) { return {key.lo, key.hi}; }

std::vector<RankedCandidate> ranked(
    const std::vector<PortfolioCatalogEntry>& catalog) {
  std::vector<RankedCandidate> candidates;
  candidates.reserve(catalog.size());
  for (const PortfolioCatalogEntry& e : catalog)
    candidates.push_back({e.program_index, &e.entry, e.weighted_benefit});
  return candidates;
}

PortfolioSelection portfolio_selection(
    const std::vector<PortfolioCatalogEntry>& catalog,
    const GreedySelection& greedy) {
  PortfolioSelection result;
  result.total_area = greedy.total_area;
  result.num_types = greedy.num_types;
  for (const GreedyPick& pick : greedy.picks) {
    const PortfolioCatalogEntry& chosen = catalog[pick.candidate];
    PortfolioSelectedIse sel;
    sel.program_index = chosen.program_index;
    sel.entry = chosen.entry;
    sel.type_id = pick.type_id;
    sel.hardware_shared = pick.hardware_shared;
    sel.weighted_benefit = chosen.weighted_benefit;
    result.selected.push_back(std::move(sel));
  }
  return result;
}

}  // namespace

std::vector<std::size_t> largest_first(
    const std::vector<const dfg::Graph*>& jobs) {
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a]->num_nodes() > jobs[b]->num_nodes();
                   });
  return order;
}

PortfolioSelection select_portfolio_ises(
    const std::vector<PortfolioCatalogEntry>& catalog,
    const SelectionConstraints& constraints) {
  return portfolio_selection(catalog,
                             select_greedy(ranked(catalog), constraints));
}

Expected<PortfolioResult> run_flow_stages(
    const std::vector<ProgramRow>& rows, const hw::HwLibrary& library,
    const FlowConfig& config,
    const std::function<ValidationReport()>& validate_inputs) {
  {
    const trace::StageTimer timer("validation");
    const ValidationReport report = validate_inputs();
    if (!report.ok()) return report.first_error();
  }
  PortfolioResult result;
  result.programs.resize(rows.size());

  // 0. Memory-hierarchy annotation (docs/MEMORY.md).  Runs before anything
  // reads the programs: annotated latencies are scheduler input, so every
  // later stage prices them and they are part of the dedup identity below.
  // Each block's annotation is a pure function of (graph, cache config), so
  // a program's result never depends on the other rows.  The callers'
  // programs are never mutated; without a cache model they are read in
  // place and the legacy latencies (and digests) are untouched.
  std::vector<const ProfiledProgram*> programs;
  programs.reserve(rows.size());
  for (const ProgramRow& row : rows) programs.push_back(row.program);
  std::vector<ProfiledProgram> annotated;
  if (config.cache) {
    const trace::StageTimer timer("cache_model");
    annotated.reserve(rows.size());
    for (std::size_t p = 0; p < rows.size(); ++p) {
      annotated.push_back(*rows[p].program);
      result.cache_stats.merge(
          annotate_program(annotated.back(), *config.cache));
      programs[p] = &annotated.back();
    }
    result.cache_modeled = true;
  }

  // 1. Profiling + hot-block selection, per program (cheap, serial).
  {
    const trace::StageTimer timer("profiling");
    for (std::size_t p = 0; p < rows.size(); ++p) {
      PortfolioProgramResult& prog = result.programs[p];
      prog.name = programs[p]->name;
      prog.weight = rows[p].weight;
      prog.hot_blocks =
          select_hot_blocks(profile_blocks(*programs[p], config.machine),
                            config.hot_coverage, config.max_hot_blocks);
    }
  }

  // Every evaluation of the batch — across repeats, rounds, blocks *and
  // programs* — memoizes through one cache: the caller's, or a private one
  // that lives for this run only.
  std::unique_ptr<runtime::EvalCache> private_cache;
  runtime::EvalCache* cache = config.params.eval_cache;
  if (cache == nullptr) {
    private_cache = std::make_unique<runtime::EvalCache>();
    cache = private_cache.get();
  }
  core::ExplorerParams params = config.params;
  params.eval_cache = cache;

  isa::IsaFormat format;
  format.reg_file = config.machine.reg_file;
  format.max_ises = config.constraints.max_ises;

  // 2. Exploration: one flat (program × hot block × repeat) batch with
  // job-level dedup, then best of `repeats` per (program, hot block).
  //
  // Streams: every program derives its streams from a fresh Rng(seed),
  // hot block by hot block, repeat by repeat, so a program's explorations
  // never depend on the other rows.  Consequence: two jobs at the same
  // within-program flat index see the same stream, so when their blocks'
  // exact digests also match (shared kernels across manifest rows) the jobs
  // are identical end to end — explore once, copy the result.  The dedup
  // decision is made serially here, before the fan-out.
  const auto per_block = static_cast<std::size_t>(config.repeats);
  std::vector<std::vector<runtime::Key128>> block_digests(rows.size());
  {
    const trace::StageTimer timer("exploration");
    const auto serial_start = std::chrono::steady_clock::now();
    UniqueJobs unique;
    std::vector<std::vector<std::size_t>> job_of(rows.size());
    std::map<std::pair<std::size_t, KeyPair>, std::size_t> first_job;
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const std::vector<std::size_t>& hot = result.programs[p].hot_blocks;
      Rng rng(config.seed);
      std::vector<Rng> streams = rng.split_n(hot.size() * per_block);
      block_digests[p].reserve(hot.size());
      for (const std::size_t bi : hot)
        block_digests[p].push_back(
            runtime::graph_digest(programs[p]->blocks[bi].graph));
      job_of[p].resize(streams.size());
      for (std::size_t j = 0; j < streams.size(); ++j) {
        const std::size_t hot_pos = j / per_block;
        const auto key =
            std::make_pair(j, key_pair(block_digests[p][hot_pos]));
        const auto [it, inserted] =
            first_job.try_emplace(key, unique.graphs.size());
        if (inserted) {
          unique.graphs.push_back(&programs[p]->blocks[hot[hot_pos]].graph);
          unique.streams.push_back(streams[j]);
        } else {
          ++result.deduped_jobs;
        }
        job_of[p][j] = it->second;
      }
      result.total_jobs += streams.size();
    }
    // Largest block first: the pool claims indices in order, so the longest
    // explorations start first.  Results are reduced through job_of.
    {
      const std::vector<std::size_t> order = largest_first(unique.graphs);
      std::vector<std::size_t> position(order.size());
      UniqueJobs sorted;
      sorted.graphs.reserve(order.size());
      sorted.streams.reserve(order.size());
      for (std::size_t k = 0; k < order.size(); ++k) {
        position[order[k]] = k;
        sorted.graphs.push_back(unique.graphs[order[k]]);
        sorted.streams.push_back(unique.streams[order[k]]);
      }
      unique = std::move(sorted);
      for (std::vector<std::size_t>& jobs : job_of)
        for (std::size_t& u : jobs) u = position[u];
    }
    const auto serial_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - serial_start)
            .count());

    const runtime::CacheStats stats_before = cache->stats();
    std::vector<core::ExplorationResult> unique_results;
    if (config.algorithm == Algorithm::kMultiIssue) {
      const core::MultiIssueExplorer explorer(config.machine, format, library,
                                              params);
      unique_results = explore_unique_jobs(explorer, unique, serial_ns);
    } else {
      const baseline::SingleIssueExplorer explorer(format, library, params);
      unique_results = explore_unique_jobs(explorer, unique, serial_ns);
    }
    result.eval_cache_stats = stats_delta(cache->stats(), stats_before);

    // Best of repeats per (program, hot block), in repeat order.  A result
    // is moved to its last user and copied to any earlier (deduped) one.
    std::vector<std::size_t> users(unique_results.size(), 0);
    for (const std::vector<std::size_t>& jobs : job_of)
      for (const std::size_t u : jobs) ++users[u];
    for (std::size_t p = 0; p < rows.size(); ++p) {
      PortfolioProgramResult& prog = result.programs[p];
      prog.explorations.reserve(prog.hot_blocks.size());
      for (std::size_t b = 0; b < prog.hot_blocks.size(); ++b) {
        std::vector<core::ExplorationResult> attempts;
        attempts.reserve(per_block);
        for (std::size_t r = 0; r < per_block; ++r) {
          const std::size_t u = job_of[p][b * per_block + r];
          if (--users[u] == 0)
            attempts.push_back(std::move(unique_results[u]));
          else
            attempts.push_back(unique_results[u]);
        }
        prog.explorations.push_back(
            core::MultiIssueExplorer::pick_best(std::move(attempts)));
      }
    }
  }

  // 3. Weighted shared selection over the merged catalog.
  std::vector<PortfolioCatalogEntry> catalog;
  GreedySelection greedy;
  {
    const trace::StageTimer timer("selection");
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const PortfolioProgramResult& prog = result.programs[p];
      for (IseCatalogEntry& entry :
           build_catalog(*programs[p], prog.hot_blocks, prog.explorations)) {
        PortfolioCatalogEntry merged;
        merged.program_index = p;
        merged.weight = prog.weight;
        merged.weighted_benefit =
            static_cast<double>(entry.benefit) * prog.weight;
        merged.entry = std::move(entry);
        catalog.push_back(std::move(merged));
      }
    }
    greedy = select_greedy(ranked(catalog), config.constraints);
    result.selection = portfolio_selection(catalog, greedy);
  }

  // Canonical-isomorphism telemetry: how much structure repeats across the
  // batch under node renumbering.  Detection only — the exact digests
  // above stay the cache currency (docs/PORTFOLIO.md).
  {
    std::map<KeyPair, std::set<KeyPair>> canon_to_exact;
    std::map<KeyPair, std::size_t> canon_count;
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const std::vector<std::size_t>& hot = result.programs[p].hot_blocks;
      for (std::size_t b = 0; b < hot.size(); ++b) {
        const KeyPair canon = key_pair(
            runtime::canonical_graph_digest(programs[p]->blocks[hot[b]].graph));
        canon_to_exact[canon].insert(key_pair(block_digests[p][b]));
        ++canon_count[canon];
      }
    }
    for (const auto& [canon, count] : canon_count)
      if (count > 1 && canon_to_exact[canon].size() > 1)
        result.isomorphic_hot_blocks += count;

    std::vector<KeyPair> pattern_keys;
    pattern_keys.reserve(catalog.size());
    std::map<KeyPair, std::set<std::size_t>> pattern_programs;
    for (const PortfolioCatalogEntry& e : catalog) {
      pattern_keys.push_back(
          key_pair(runtime::canonical_graph_digest(e.entry.pattern)));
      pattern_programs[pattern_keys.back()].insert(e.program_index);
    }
    for (const KeyPair& key : pattern_keys)
      if (pattern_programs[key].size() > 1) ++result.isomorphic_candidates;
  }

  // 4. Replacement per program under its slice of the selection.  Type ids
  // stay global; a slice's total_area charges the types this program paid
  // for (its unshared picks, each of which opened a type), and num_types
  // counts the distinct ASFUs it touches.  The slices take the selected
  // catalog entries by move: the catalog is not read again.
  {
    const trace::StageTimer timer("replacement");
    for (const GreedyPick& pick : greedy.picks) {
      PortfolioCatalogEntry& chosen = catalog[pick.candidate];
      SelectionResult& slice =
          result.programs[chosen.program_index].selection;
      if (!pick.hardware_shared) slice.total_area += chosen.entry.ise.eval.area;
      slice.selected.push_back(SelectedIse{std::move(chosen.entry),
                                           pick.type_id,
                                           pick.hardware_shared});
    }
    for (std::size_t p = 0; p < rows.size(); ++p) {
      PortfolioProgramResult& prog = result.programs[p];
      std::set<int> used_types;
      for (const SelectedIse& sel : prog.selection.selected)
        used_types.insert(sel.type_id);
      prog.selection.num_types = static_cast<int>(used_types.size());
      prog.replacement = apply_selection(*programs[p], prog.selection,
                                         config.machine, config.replacement);
    }
  }
  return result;
}

PortfolioResult run_portfolio_flow(const std::vector<PortfolioEntry>& entries,
                                   const hw::HwLibrary& library,
                                   const PortfolioConfig& config) {
  Expected<PortfolioResult> result =
      run_portfolio_flow_checked(entries, library, config);
  if (!result) throw ValidationException(result.error());
  return std::move(result).value();
}

Expected<PortfolioResult> run_portfolio_flow_checked(
    const std::vector<PortfolioEntry>& entries, const hw::HwLibrary& library,
    const PortfolioConfig& config) {
  std::vector<ProgramRow> rows;
  rows.reserve(entries.size());
  for (const PortfolioEntry& entry : entries)
    rows.push_back(ProgramRow{&entry.program, entry.weight});
  Expected<PortfolioResult> result =
      run_flow_stages(rows, library, config.base, [&] {
        ValidationReport report = validate(config.base);
        report.merge(validate(entries));
        return report;
      });
  if (!result) return result;

  // Batch telemetry: the dedup hit-rate gauge plus per-program benefit.
  trace::MetricsRegistry& registry = trace::MetricsRegistry::global();
  registry.counter("isex_portfolio_flows_total").inc();
  registry.counter("isex_portfolio_jobs_total")
      .inc(static_cast<double>(result->total_jobs));
  registry.counter("isex_portfolio_jobs_deduped_total")
      .inc(static_cast<double>(result->deduped_jobs));
  registry.gauge("isex_portfolio_dedup_hit_rate")
      .set(result->eval_cache_stats.hit_rate());
  for (const PortfolioProgramResult& prog : result->programs)
    registry
        .gauge("isex_portfolio_program_weighted_benefit",
               {{"program", prog.name}})
        .set(prog.weighted_benefit());

  return result;
}

}  // namespace isex::flow
