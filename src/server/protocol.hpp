// isex_serve wire protocol (docs/SERVER.md).
//
// Jobs travel over a TCP connection as newline-delimited JSON: one request
// object per line in, one response object per line out, in request order.
// The same listening socket also answers plain HTTP `GET /metrics` and
// `GET /healthz` (the server sniffs the first bytes), so one port serves
// both the job traffic and the scrape path.
//
// This header is the protocol's *data* layer — request parsing, response
// serialization, the canonical job signature, and the golden result digest —
// kept free of sockets so tests can exercise it in-process.  The JSON
// reader is a deliberately small recursive-descent parser over the accepted
// subset (objects, strings, numbers, bools, null, arrays); requests are one
// flat object, so nothing more is needed and nothing more is accepted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/design_flow.hpp"
#include "flow/portfolio.hpp"
#include "mem/cache_model.hpp"
#include "runtime/hash.hpp"
#include "util/error.hpp"

namespace isex::server {

/// One manifest row of a portfolio request (docs/PORTFOLIO.md).
struct PortfolioProgramSpec {
  /// Program label echoed in the per-program results (defaults to "p<i>").
  std::string name;
  /// TAC source of the program (required).
  std::string kernel;
  /// Execution-frequency weight (finite, > 0).
  double weight = 1.0;
};

/// One exploration job, as submitted on the wire.  Field defaults mirror
/// isex_cli's flag defaults, so a request carrying only `kernel` explores
/// exactly like `isex explore kernel.tac`.
struct JobRequest {
  /// Client-chosen token echoed verbatim in the response (optional).
  std::string id;
  /// TAC source of the kernel (required; see src/isa/tac_parser.hpp).
  std::string kernel;
  /// Higher drains first; ties drain in arrival order.
  int priority = 0;
  int issue = 2;
  int read_ports = 6;
  int write_ports = 3;
  int repeats = 5;
  std::uint64_t seed = 1;
  /// Ant colonies per exploration round (1 = the paper's serial loop).  A
  /// search parameter like `seed`: results depend on it, never on the
  /// server's thread count.
  int colonies = 1;
  /// Iterations between colony pheromone merges; inert when colonies == 1
  /// (the signature normalizes it away so inert variants share a cache key).
  int merge_interval = 8;
  /// ASFU area budget, µm² (absent = unlimited).
  double area_budget = 0.0;
  bool has_area_budget = false;
  /// Distinct ISE type budget.
  int max_ises = 32;
  /// Use the single-issue (legality-only) baseline explorer.
  bool baseline = false;
  /// Memory-hierarchy cost model (docs/MEMORY.md).  `cache_config` carries
  /// the raw spec string for echoing; `cache` is the parsed, validated
  /// geometry.  Absent (has_cache == false) keeps the legacy fixed
  /// latencies and the request's v2 job signature byte-for-byte.
  std::string cache_config;
  mem::CacheConfig cache;
  bool has_cache = false;
  /// Portfolio manifest.  Non-empty selects the portfolio job type — all N
  /// programs explored as one batch under one shared area budget — and is
  /// mutually exclusive with `kernel`.  Every other field keeps its single-
  /// kernel meaning and applies portfolio-wide.
  std::vector<PortfolioProgramSpec> programs;

  bool is_portfolio() const { return !programs.empty(); }
};

/// Parses one request line.  Unknown fields are rejected (a typo'd field
/// silently exploring with a default would be worse than an error).
Expected<JobRequest> parse_job_request(const std::string& line);

/// FlowConfig the request describes (machine, repeats, seed, constraints).
flow::FlowConfig flow_config_for(const JobRequest& request);

/// PortfolioConfig for a portfolio request (base = flow_config_for).
flow::PortfolioConfig portfolio_config_for(const JobRequest& request);

/// Canonical signature of the evaluation a request asks for: the kernel
/// graph's structural digest combined with every parameter that can change
/// the result (machine, repeats, seed, constraints, algorithm).  Two
/// requests with equal keys produce bit-identical results, so this is the
/// persistent job-result cache key.  Domain-separated from schedule_key and
/// candidate_key by its own seed constants.
runtime::Key128 job_signature(const dfg::Graph& graph,
                              const JobRequest& request);

/// job_signature over a graph's runtime::graph_digest, which is all of the
/// graph the signature reads: the graph overload above returns
/// job_signature(runtime::graph_digest(graph), request).  The server signs
/// with this one, so a kernel it has already digested needs no graph.
runtime::Key128 job_signature(const runtime::Key128& graph_digest,
                              const JobRequest& request);

/// Canonical signature of a portfolio request: the multiset of per-program
/// (job signature, weight) pairs — each pair a job_signature over that
/// program's graph with the shared parameters (machine, repeats, seed,
/// colonies, constraints, algorithm) — mixed in sorted order, so two
/// manifests listing the same weighted programs share one cache key
/// regardless of row order.  `graphs` is parallel to request.programs.
/// Domain-separated from job_signature by its own seed constants.
runtime::Key128 portfolio_signature(
    const std::vector<const dfg::Graph*>& graphs, const JobRequest& request);

/// portfolio_signature over the programs' graph digests (parallel to
/// request.programs); the graph overload above digests and delegates here.
runtime::Key128 portfolio_signature(
    const std::vector<runtime::Key128>& graph_digests,
    const JobRequest& request);

/// Order-independent digest over every observable field of a FlowResult
/// (times, per-block outcomes, selected ISEs).  The response carries it so
/// clients — and the warm-cache tests — can assert bit-identical results
/// across processes and cache layers.
std::uint64_t flow_result_digest(const flow::FlowResult& result);

/// Renders the response body for a completed job: a JSON object *fragment*
/// (no `id` / `cache_hit` — the server adds those per delivery, so the
/// fragment is what the result cache stores and replays verbatim).
std::string render_result_fragment(const flow::FlowResult& result);

/// Digest over every observable field of a PortfolioResult (per-program
/// times and selection slices, the shared selection, dedup telemetry).
std::uint64_t portfolio_result_digest(const flow::PortfolioResult& result);

/// Response-body fragment for a completed portfolio job (same contract as
/// render_result_fragment: no `id` / `cache_hit`; this is what the blob
/// cache stores and replays verbatim on resubmission).
std::string render_portfolio_fragment(const flow::PortfolioResult& result);

/// Per-delivery timing breakdown (microseconds) the server attaches to
/// every job response: where this submission's latency went.  Cache hits
/// report zero queue_wait/explore (they never touch the queue); total is
/// receive-to-render wall time on the connection thread.
struct JobTimings {
  std::uint64_t queue_wait_us = 0;
  std::uint64_t validate_us = 0;
  std::uint64_t explore_us = 0;
  std::uint64_t cache_us = 0;
  std::uint64_t total_us = 0;
};

/// `"timings":{...}` JSON fragment for a response.
std::string render_timings(const JobTimings& timings);

/// Full response line (without trailing newline) for a success.  The
/// timings are a per-delivery field, rendered *before* the cached result
/// fragment so the fragment tail stays byte-identical across deliveries.
std::string render_response(const std::string& id, bool cache_hit,
                            const JobTimings& timings,
                            const std::string& result_fragment);

/// Convenience overload with all-zero timings (tests, replay paths).
std::string render_response(const std::string& id, bool cache_hit,
                            const std::string& result_fragment);

/// Full response line for a failure, carrying the stable error code both
/// numerically ("E0602") and as its identifier ("server-queue-full").
std::string render_error_response(const std::string& id, const Error& error);

}  // namespace isex::server
