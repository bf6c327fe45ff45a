// Portfolio flow subsystem: bit-identity of per-program explorations against
// independent run_design_flow runs, thread-count invariance, job-level dedup
// across duplicate manifest rows, the weighted greedy shared-area selection,
// manifest validation, the canonical (node-id-independent) fingerprint
// contract, the portfolio wire signature, and the isex_serve round trip
// (resubmit and restart answered from the persistent cache).
//
// Every suite is named Portfolio* so the CI TSan job's regex picks them up.
#include "flow/portfolio.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "flow/validate.hpp"
#include "isa/tac_parser.hpp"
#include "runtime/hash.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace isex {
namespace {

using bench_suite::Benchmark;
using bench_suite::OptLevel;

flow::FlowConfig base_config() {
  flow::FlowConfig c;
  c.machine = sched::MachineConfig::make(2, {6, 3});
  c.repeats = 2;  // keep tests fast
  c.seed = 99;
  return c;
}

flow::PortfolioConfig portfolio_config() {
  flow::PortfolioConfig config;
  config.base = base_config();
  return config;
}

flow::PortfolioEntry entry_for(Benchmark benchmark, double weight) {
  flow::PortfolioEntry entry;
  entry.program = bench_suite::make_program(benchmark, OptLevel::kO3);
  entry.weight = weight;
  return entry;
}

void expect_same_explorations(
    const std::vector<core::ExplorationResult>& got,
    const std::vector<core::ExplorationResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("hot block " + std::to_string(i));
    EXPECT_EQ(got[i].base_cycles, want[i].base_cycles);
    EXPECT_EQ(got[i].final_cycles, want[i].final_cycles);
    EXPECT_EQ(got[i].rounds, want[i].rounds);
    EXPECT_EQ(got[i].total_iterations, want[i].total_iterations);
    ASSERT_EQ(got[i].ises.size(), want[i].ises.size());
    for (std::size_t k = 0; k < got[i].ises.size(); ++k) {
      SCOPED_TRACE("ise " + std::to_string(k));
      EXPECT_EQ(got[i].ises[k].original_nodes, want[i].ises[k].original_nodes);
      EXPECT_EQ(got[i].ises[k].gain_cycles, want[i].ises[k].gain_cycles);
      EXPECT_EQ(got[i].ises[k].in_count, want[i].ises[k].in_count);
      EXPECT_EQ(got[i].ises[k].out_count, want[i].ises[k].out_count);
      EXPECT_EQ(got[i].ises[k].eval.area, want[i].ises[k].eval.area);
      EXPECT_EQ(got[i].ises[k].eval.latency_cycles,
                want[i].ises[k].eval.latency_cycles);
    }
  }
}

// ---------------------------------------------------------------------------
// Tentpole contract: the batch changes scheduling and selection, never the
// per-program exploration results.

TEST(PortfolioFlowTest, MatchesIndependentFlows) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  std::vector<flow::PortfolioEntry> entries;
  entries.push_back(entry_for(Benchmark::kCrc32, 2.0));
  entries.push_back(entry_for(Benchmark::kFft, 1.0));
  entries.push_back(entry_for(Benchmark::kAdpcm, 3.0));

  const flow::PortfolioResult portfolio =
      flow::run_portfolio_flow(entries, lib, portfolio_config());
  ASSERT_EQ(portfolio.programs.size(), entries.size());

  for (std::size_t p = 0; p < entries.size(); ++p) {
    SCOPED_TRACE(entries[p].program.name);
    const flow::FlowResult reference =
        flow::run_design_flow(entries[p].program, lib, base_config());
    EXPECT_EQ(portfolio.programs[p].hot_blocks, reference.hot_blocks);
    expect_same_explorations(portfolio.programs[p].explorations,
                             reference.explorations);
  }
  EXPECT_GT(portfolio.total_jobs, 0u);
  EXPECT_GT(portfolio.total_weighted_benefit(), 0.0);
}

TEST(PortfolioFlowTest, DeterministicAcrossJobCounts) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  std::vector<flow::PortfolioEntry> entries;
  entries.push_back(entry_for(Benchmark::kCrc32, 1.0));
  entries.push_back(entry_for(Benchmark::kBitcount, 2.5));

  flow::PortfolioConfig serial = portfolio_config();
  serial.base.jobs = 1;
  flow::PortfolioConfig wide = portfolio_config();
  wide.base.jobs = 4;

  const flow::PortfolioResult a = flow::run_portfolio_flow(entries, lib, serial);
  const flow::PortfolioResult b = flow::run_portfolio_flow(entries, lib, wide);

  ASSERT_EQ(a.programs.size(), b.programs.size());
  for (std::size_t p = 0; p < a.programs.size(); ++p) {
    SCOPED_TRACE("program " + std::to_string(p));
    EXPECT_EQ(a.programs[p].hot_blocks, b.programs[p].hot_blocks);
    EXPECT_EQ(a.programs[p].base_time(), b.programs[p].base_time());
    EXPECT_EQ(a.programs[p].final_time(), b.programs[p].final_time());
    expect_same_explorations(a.programs[p].explorations,
                             b.programs[p].explorations);
  }
  ASSERT_EQ(a.selection.selected.size(), b.selection.selected.size());
  for (std::size_t i = 0; i < a.selection.selected.size(); ++i) {
    const flow::PortfolioSelectedIse& x = a.selection.selected[i];
    const flow::PortfolioSelectedIse& y = b.selection.selected[i];
    EXPECT_EQ(x.program_index, y.program_index);
    EXPECT_EQ(x.entry.block_index, y.entry.block_index);
    EXPECT_EQ(x.entry.position, y.entry.position);
    EXPECT_EQ(x.type_id, y.type_id);
    EXPECT_EQ(x.hardware_shared, y.hardware_shared);
    EXPECT_EQ(x.weighted_benefit, y.weighted_benefit);
  }
  EXPECT_EQ(a.selection.total_area, b.selection.total_area);
  EXPECT_EQ(a.selection.num_types, b.selection.num_types);
  EXPECT_EQ(a.total_jobs, b.total_jobs);
  EXPECT_EQ(a.deduped_jobs, b.deduped_jobs);
}

TEST(PortfolioFlowTest, DuplicateProgramsDedupAndShareHardware) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  std::vector<flow::PortfolioEntry> entries;
  entries.push_back(entry_for(Benchmark::kCrc32, 1.0));
  entries.push_back(entry_for(Benchmark::kCrc32, 2.0));
  entries[1].program.name = "crc32_again";

  const flow::PortfolioResult r =
      flow::run_portfolio_flow(entries, lib, portfolio_config());
  ASSERT_EQ(r.programs.size(), 2u);

  // The duplicate's (index, block-digest) jobs match the first program's
  // exactly: the entire second half of the batch is deduped, and the copied
  // results are bit-identical.
  EXPECT_EQ(r.deduped_jobs * 2, r.total_jobs);
  EXPECT_EQ(r.programs[0].hot_blocks, r.programs[1].hot_blocks);
  expect_same_explorations(r.programs[1].explorations,
                           r.programs[0].explorations);
  EXPECT_EQ(r.programs[0].final_time(), r.programs[1].final_time());

  // Identical patterns collapse onto shared ASFUs: the selection never pays
  // for more types than one program alone needs, and at least one selection
  // reuses hardware first charged to the other program.
  ASSERT_FALSE(r.selection.selected.empty());
  bool any_shared = false;
  for (const flow::PortfolioSelectedIse& sel : r.selection.selected)
    any_shared = any_shared || sel.hardware_shared;
  EXPECT_TRUE(any_shared);
  EXPECT_LT(r.selection.num_types,
            static_cast<int>(r.selection.selected.size()));
  // Both programs were explored through the shared eval cache, so the batch
  // records hits (the duplicate's candidate evaluations all memoize).
  EXPECT_GT(r.eval_cache_stats.hits, 0u);
}

// ---------------------------------------------------------------------------
// Weighted greedy selection unit tests (synthetic catalogs).

dfg::Graph pattern_graph(const char* source) {
  Expected<isa::ParsedBlock> block = isa::parse_tac_checked(source);
  EXPECT_TRUE(block.has_value());
  return block->graph;
}

flow::PortfolioCatalogEntry make_entry(std::size_t program, std::size_t block,
                                       std::size_t position,
                                       const dfg::Graph& pattern, double area,
                                       std::uint64_t benefit, double weight) {
  flow::PortfolioCatalogEntry e;
  e.program_index = program;
  e.weight = weight;
  e.entry.block_index = block;
  e.entry.position = position;
  e.entry.pattern = pattern;
  e.entry.benefit = benefit;
  e.entry.ise.eval.area = area;
  e.weighted_benefit = static_cast<double>(benefit) * weight;
  return e;
}

TEST(PortfolioSelectionTest, RanksByWeightedBenefit) {
  const dfg::Graph add = pattern_graph("t = addu a, b\nlive_out t\n");
  const dfg::Graph mul = pattern_graph("t = mult a, b\nlive_out t\n");
  // Program 1's raw benefit is lower but its weight dominates.
  std::vector<flow::PortfolioCatalogEntry> catalog;
  catalog.push_back(make_entry(0, 0, 0, add, 10.0, 100, 1.0));
  catalog.push_back(make_entry(1, 0, 0, mul, 10.0, 60, 4.0));

  const flow::PortfolioSelection sel =
      flow::select_portfolio_ises(catalog, flow::SelectionConstraints{});
  ASSERT_EQ(sel.selected.size(), 2u);
  EXPECT_EQ(sel.selected[0].program_index, 1u);
  EXPECT_EQ(sel.selected[0].weighted_benefit, 240.0);
  EXPECT_EQ(sel.selected[1].program_index, 0u);
  EXPECT_EQ(sel.num_types, 2);
  EXPECT_EQ(sel.total_area, 20.0);
}

TEST(PortfolioSelectionTest, EqualBenefitPrefersSmallerArea) {
  const dfg::Graph add = pattern_graph("t = addu a, b\nlive_out t\n");
  const dfg::Graph mul = pattern_graph("t = mult a, b\nlive_out t\n");
  std::vector<flow::PortfolioCatalogEntry> catalog;
  catalog.push_back(make_entry(0, 0, 0, mul, 50.0, 100, 1.0));
  catalog.push_back(make_entry(1, 0, 0, add, 5.0, 100, 1.0));

  const flow::PortfolioSelection sel =
      flow::select_portfolio_ises(catalog, flow::SelectionConstraints{});
  ASSERT_EQ(sel.selected.size(), 2u);
  EXPECT_EQ(sel.selected[0].program_index, 1u);  // same benefit, cheaper ASFU
}

TEST(PortfolioSelectionTest, UnaffordableHeadRetiresBlock) {
  const dfg::Graph add = pattern_graph("t = addu a, b\nlive_out t\n");
  const dfg::Graph mul = pattern_graph("t = mult a, b\nlive_out t\n");
  const dfg::Graph x = pattern_graph("t = xor a, b\nlive_out t\n");
  std::vector<flow::PortfolioCatalogEntry> catalog;
  // Block (0,0): expensive head, cheap tail.  gain_cycles were measured
  // with the head committed, so the tail must never be cherry-picked.
  catalog.push_back(make_entry(0, 0, 0, mul, 100.0, 500, 1.0));
  catalog.push_back(make_entry(0, 0, 1, add, 1.0, 400, 1.0));
  // A different program's affordable entry.
  catalog.push_back(make_entry(1, 0, 0, x, 10.0, 50, 1.0));

  flow::SelectionConstraints constraints;
  constraints.area_budget = 50.0;
  const flow::PortfolioSelection sel =
      flow::select_portfolio_ises(catalog, constraints);
  ASSERT_EQ(sel.selected.size(), 1u);
  EXPECT_EQ(sel.selected[0].program_index, 1u);
  EXPECT_EQ(sel.total_area, 10.0);
}

TEST(PortfolioSelectionTest, SharedPatternIsFreeAndSkipsTypeBudget) {
  const dfg::Graph add_a = pattern_graph("t = addu a, b\nlive_out t\n");
  const dfg::Graph add_b = pattern_graph("s = addu p, q\nlive_out s\n");
  const dfg::Graph mul = pattern_graph("t = mult a, b\nlive_out t\n");
  std::vector<flow::PortfolioCatalogEntry> catalog;
  catalog.push_back(make_entry(0, 0, 0, add_a, 25.0, 300, 1.0));
  catalog.push_back(make_entry(1, 0, 0, add_b, 25.0, 200, 1.0));
  catalog.push_back(make_entry(2, 0, 0, mul, 25.0, 100, 1.0));

  flow::SelectionConstraints constraints;
  constraints.max_ises = 1;
  const flow::PortfolioSelection sel =
      flow::select_portfolio_ises(catalog, constraints);
  // The isomorphic adder is selected twice (one paid, one shared); the
  // multiplier needs a second type and is rejected by max_ises = 1.
  ASSERT_EQ(sel.selected.size(), 2u);
  EXPECT_EQ(sel.num_types, 1);
  EXPECT_EQ(sel.total_area, 25.0);
  EXPECT_FALSE(sel.selected[0].hardware_shared);
  EXPECT_TRUE(sel.selected[1].hardware_shared);
  EXPECT_EQ(sel.selected[0].type_id, sel.selected[1].type_id);
  EXPECT_EQ(sel.selected[1].program_index, 1u);
}

// ---------------------------------------------------------------------------
// Manifest validation through the non-throwing boundary.

TEST(PortfolioValidationTest, EmptyManifestIsRejected) {
  const Expected<flow::PortfolioResult> r = flow::run_portfolio_flow_checked(
      {}, hw::HwLibrary::paper_default(), portfolio_config());
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code(), ErrorCode::kProgramEmpty);
}

TEST(PortfolioValidationTest, NonPositiveWeightIsRejected) {
  std::vector<flow::PortfolioEntry> entries;
  entries.push_back(entry_for(Benchmark::kCrc32, 0.0));
  const Expected<flow::PortfolioResult> r = flow::run_portfolio_flow_checked(
      entries, hw::HwLibrary::paper_default(), portfolio_config());
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code(), ErrorCode::kFlowParamsInvalid);
}

TEST(PortfolioValidationTest, NonFiniteWeightIsRejected) {
  std::vector<flow::PortfolioEntry> entries;
  entries.push_back(
      entry_for(Benchmark::kCrc32, std::numeric_limits<double>::quiet_NaN()));
  const ValidationReport report = flow::validate(entries);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_error().code(), ErrorCode::kFlowParamsInvalid);
}

// ---------------------------------------------------------------------------
// Canonical fingerprint regression (dedup-detection contract): permuted node
// ids give equal canonical keys, a one-operation perturbation does not, and
// the exact keys stay numbering-sensitive (they may carry cached makespans;
// canonical keys never do — the scheduler breaks ties by node id).

// Same DFG emitted in two statement orders.  The live-ins x, y appear in the
// same first-use order in both, so only the *node* numbering differs.
constexpr const char* kOrderA =
    "a = addu x, y\n"
    "b = mult x, y\n"
    "c = xor a, b\n"
    "live_out c\n";
constexpr const char* kOrderB =
    "b = mult x, y\n"
    "a = addu x, y\n"
    "c = xor a, b\n"
    "live_out c\n";
// kOrderB with one opcode perturbed.
constexpr const char* kPerturbed =
    "b = mult x, y\n"
    "a = subu x, y\n"
    "c = xor a, b\n"
    "live_out c\n";

dfg::NodeId node_by_label(const dfg::Graph& graph, const std::string& label) {
  for (std::size_t v = 0; v < graph.num_nodes(); ++v)
    if (graph.node(static_cast<dfg::NodeId>(v)).label == label)
      return static_cast<dfg::NodeId>(v);
  ADD_FAILURE() << "no node labelled '" << label << "'";
  return 0;
}

dfg::NodeSet members_of(const dfg::Graph& graph,
                        const std::vector<std::string>& labels) {
  dfg::NodeSet members(graph.num_nodes());
  for (const std::string& label : labels)
    members.insert(node_by_label(graph, label));
  return members;
}

TEST(PortfolioCanonicalKeyTest, RenumberedGraphsShareCanonicalDigest) {
  const dfg::Graph a = pattern_graph(kOrderA);
  const dfg::Graph b = pattern_graph(kOrderB);
  // Statement order permutes the node ids...
  EXPECT_NE(node_by_label(a, "a"), node_by_label(b, "a"));
  // ...so the exact digests differ, but the canonical digests agree.
  const runtime::Key128 exact_a = runtime::graph_digest(a);
  const runtime::Key128 exact_b = runtime::graph_digest(b);
  EXPECT_FALSE(exact_a == exact_b);
  EXPECT_EQ(runtime::canonical_graph_digest(a),
            runtime::canonical_graph_digest(b));
}

TEST(PortfolioCanonicalKeyTest, PerturbationChangesCanonicalDigest) {
  EXPECT_FALSE(runtime::canonical_graph_digest(pattern_graph(kOrderB)) ==
               runtime::canonical_graph_digest(pattern_graph(kPerturbed)));
}

TEST(PortfolioCanonicalKeyTest, RenumberedCandidatesShareCanonicalKey) {
  const dfg::Graph a = pattern_graph(kOrderA);
  const dfg::Graph b = pattern_graph(kOrderB);
  const runtime::CanonicalLabeling label_a = runtime::canonical_labeling(a);
  const runtime::CanonicalLabeling label_b = runtime::canonical_labeling(b);
  const dfg::IseInfo info;
  const sched::MachineConfig machine = sched::MachineConfig::make(2, {6, 3});
  const sched::PriorityKind priority = sched::PriorityKind::kChildCount;

  // The {a, c} candidate occupies different node ids in the two numberings.
  const dfg::NodeSet in_a = members_of(a, {"a", "c"});
  const dfg::NodeSet in_b = members_of(b, {"a", "c"});
  EXPECT_NE(in_a, in_b);

  EXPECT_EQ(
      runtime::canonical_candidate_key(label_a, in_a, info, machine, priority),
      runtime::canonical_candidate_key(label_b, in_b, info, machine, priority));
  // The exact (value-carrying) keys stay numbering-sensitive.
  EXPECT_FALSE(runtime::candidate_key(runtime::graph_digest(a), in_a, info,
                                      machine, priority) ==
               runtime::candidate_key(runtime::graph_digest(b), in_b, info,
                                      machine, priority));
  // A different member set is a different canonical candidate.
  EXPECT_FALSE(runtime::canonical_candidate_key(label_a, in_a, info, machine,
                                                priority) ==
               runtime::canonical_candidate_key(label_a,
                                                members_of(a, {"b", "c"}),
                                                info, machine, priority));
}

// ---------------------------------------------------------------------------
// Wire protocol: manifest parsing and the order-invariant signature.

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n')
      out += "\\n";
    else if (c == '"' || c == '\\')
      out += std::string("\\") + c;
    else
      out += c;
  }
  return out;
}

constexpr const char* kBlendKernel =
    "ia = subu 255, alpha\n"
    "m0 = mult fg, alpha\n"
    "m1 = mult bg, ia\n"
    "s = addu m0, m1\n"
    "blend = srl s, 8\n"
    "live_out blend\n";

constexpr const char* kSigmaKernel =
    "r7a = srl x, 7\n"
    "r7b = sll x, 25\n"
    "r7 = or r7a, r7b\n"
    "s3 = srl x, 3\n"
    "sigma = xor r7, s3\n"
    "live_out sigma\n";

std::string program_obj(const char* kernel, double weight,
                        const std::string& name = "") {
  std::string obj = "{\"kernel\":\"" + json_escape(kernel) + "\"";
  obj += ",\"weight\":" + std::to_string(weight);
  if (!name.empty()) obj += ",\"name\":\"" + name + "\"";
  return obj + "}";
}

std::string portfolio_line(const std::string& id,
                           const std::string& programs_json,
                           const std::string& extra = "") {
  std::string line =
      "{\"id\":\"" + id + "\",\"programs\":[" + programs_json +
      "],\"repeats\":2";
  if (!extra.empty()) line += "," + extra;
  return line + "}";
}

TEST(PortfolioSignatureTest, InvariantUnderManifestOrder) {
  const Expected<server::JobRequest> fwd = server::parse_job_request(
      portfolio_line("fwd", program_obj(kBlendKernel, 2.0) + "," +
                                program_obj(kSigmaKernel, 1.0)));
  const Expected<server::JobRequest> rev = server::parse_job_request(
      portfolio_line("rev", program_obj(kSigmaKernel, 1.0) + "," +
                                program_obj(kBlendKernel, 2.0)));
  ASSERT_TRUE(fwd.has_value());
  ASSERT_TRUE(rev.has_value());

  Expected<isa::ParsedBlock> blend = isa::parse_tac_checked(kBlendKernel);
  Expected<isa::ParsedBlock> sigma = isa::parse_tac_checked(kSigmaKernel);
  ASSERT_TRUE(blend.has_value());
  ASSERT_TRUE(sigma.has_value());

  const std::vector<const dfg::Graph*> fwd_graphs{&blend->graph,
                                                  &sigma->graph};
  const std::vector<const dfg::Graph*> rev_graphs{&sigma->graph,
                                                  &blend->graph};
  EXPECT_EQ(server::portfolio_signature(fwd_graphs, fwd.value()),
            server::portfolio_signature(rev_graphs, rev.value()));

  // Changing one weight changes the signature.
  const Expected<server::JobRequest> reweighted = server::parse_job_request(
      portfolio_line("rw", program_obj(kBlendKernel, 3.0) + "," +
                               program_obj(kSigmaKernel, 1.0)));
  ASSERT_TRUE(reweighted.has_value());
  EXPECT_FALSE(server::portfolio_signature(fwd_graphs, fwd.value()) ==
               server::portfolio_signature(fwd_graphs, reweighted.value()));
}

TEST(PortfolioSignatureTest, ParseRejectsMalformedManifests) {
  // 'kernel' and 'programs' are mutually exclusive.
  const Expected<server::JobRequest> both = server::parse_job_request(
      "{\"id\":\"x\",\"kernel\":\"" + json_escape(kBlendKernel) +
      "\",\"programs\":[" + program_obj(kSigmaKernel, 1.0) + "]}");
  ASSERT_FALSE(both.has_value());
  EXPECT_EQ(both.error().code(), ErrorCode::kServerProtocol);

  // A program object needs a kernel.
  const Expected<server::JobRequest> no_kernel = server::parse_job_request(
      "{\"id\":\"x\",\"programs\":[{\"weight\":1.0}]}");
  EXPECT_FALSE(no_kernel.has_value());

  // Weights must be finite and positive.
  const Expected<server::JobRequest> bad_weight = server::parse_job_request(
      portfolio_line("x", program_obj(kBlendKernel, 0.0)));
  EXPECT_FALSE(bad_weight.has_value());

  // Unknown per-program fields are rejected like unknown top-level ones.
  const Expected<server::JobRequest> unknown = server::parse_job_request(
      "{\"id\":\"x\",\"programs\":[{\"kernel\":\"" +
      json_escape(kSigmaKernel) + "\",\"bogus\":1}]}");
  EXPECT_FALSE(unknown.has_value());
}

// ---------------------------------------------------------------------------
// isex_serve round trip: a portfolio job computes once, then resubmission —
// in-process or after a restart — is answered from the persistent cache with
// zero re-exploration.

std::string extract_field(const std::string& response, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  while (end < response.size() && response[end] != ',' &&
         response[end] != '}')
    ++end;
  return response.substr(begin, end - begin);
}

TEST(PortfolioServerTest, RoundTripResubmitAndRestartHitTheCache) {
  const std::string cache_path =
      ::testing::TempDir() + "isex_portfolio_roundtrip.cache";
  std::remove(cache_path.c_str());
  const std::string manifest = program_obj(kBlendKernel, 2.0, "blend") + "," +
                               program_obj(kSigmaKernel, 1.0, "sigma");

  std::string digest;
  {
    server::ServerOptions options;
    options.port = 0;
    options.cache_path = cache_path;
    server::Server server(options);
    ASSERT_TRUE(server.start().has_value());

    const std::string cold =
        server.process_line(portfolio_line("cold", manifest));
    ASSERT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
    EXPECT_NE(cold.find("\"portfolio\":true"), std::string::npos) << cold;
    EXPECT_NE(cold.find("\"cache_hit\":false"), std::string::npos) << cold;
    EXPECT_NE(cold.find("\"name\":\"blend\""), std::string::npos) << cold;
    digest = extract_field(cold, "result_digest");
    ASSERT_FALSE(digest.empty());

    // Same manifest, new id: answered from the result cache, bit-identical.
    const std::string warm =
        server.process_line(portfolio_line("warm", manifest));
    EXPECT_NE(warm.find("\"cache_hit\":true"), std::string::npos) << warm;
    EXPECT_EQ(extract_field(warm, "result_digest"), digest);

    server.request_drain();
    ASSERT_EQ(server.wait(), 0);
  }
  {
    // Restart on the same log: the blob was persisted, so the job is
    // answered from disk without re-exploring anything.
    server::ServerOptions options;
    options.port = 0;
    options.cache_path = cache_path;
    server::Server server(options);
    ASSERT_TRUE(server.start().has_value());
    const std::string replay =
        server.process_line(portfolio_line("replay", manifest));
    EXPECT_NE(replay.find("\"cache_hit\":true"), std::string::npos) << replay;
    EXPECT_EQ(extract_field(replay, "result_digest"), digest);
    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
  }
  std::remove(cache_path.c_str());
}

}  // namespace
}  // namespace isex
