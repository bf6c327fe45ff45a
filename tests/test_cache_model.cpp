// Memory-hierarchy cost model tests (docs/MEMORY.md): config parsing and
// validation, LRU cache behaviour, deterministic access-stream derivation,
// null-model digest identity, thread-count independence, and the pinned
// memory-bound kernel whose ISE outcome the model changes.
#include "mem/cache_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "flow/design_flow.hpp"
#include "flow/validate.hpp"
#include "isa/tac_parser.hpp"
#include "mem/mem_stream.hpp"
#include "runtime/hash.hpp"
#include "runtime/thread_pool.hpp"

namespace isex::mem {
namespace {

TEST(CacheModelConfig, EmptySpecYieldsDefaults) {
  const Expected<CacheConfig> parsed = parse_cache_config("");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, CacheConfig{});
}

TEST(CacheModelConfig, ParsesSizesWaysAndSuffixes) {
  const Expected<CacheConfig> parsed = parse_cache_config(
      "l1_size=1k,l1_ways=1,l1_line=16,l1_hit=2,l2_size=32K,l2_ways=4,"
      "l2_line=64,l2_hit=10,mem=80,iters=4");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->l1.size_bytes, 1024);
  EXPECT_EQ(parsed->l1.ways, 1);
  EXPECT_EQ(parsed->l1.line_bytes, 16);
  EXPECT_EQ(parsed->l1.hit_latency, 2);
  EXPECT_EQ(parsed->l2.size_bytes, 32768);
  EXPECT_EQ(parsed->l2.ways, 4);
  EXPECT_EQ(parsed->l2.line_bytes, 64);
  EXPECT_EQ(parsed->l2.hit_latency, 10);
  EXPECT_EQ(parsed->mem_latency, 80);
  EXPECT_EQ(parsed->iterations, 4);
}

TEST(CacheModelConfig, LabelRoundTrips) {
  const Expected<CacheConfig> parsed =
      parse_cache_config("l1_size=2k,l1_ways=2,l1_line=16,l2_size=8k,mem=25");
  ASSERT_TRUE(parsed.has_value());
  const Expected<CacheConfig> again = parse_cache_config(parsed->label());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *parsed);
}

TEST(CacheModelConfig, RejectsSyntaxDefects) {
  for (const char* spec :
       {"l1_size", "l1_size=", "bogus=4", "l1_size=4k,l1_size=8k",
        "l1_ways=two", "l1_size=4q", ",", "l1_size=4k,,l1_ways=2"}) {
    const Expected<CacheConfig> parsed = parse_cache_config(spec);
    ASSERT_FALSE(parsed.has_value()) << spec;
    EXPECT_EQ(parsed.error().code(), ErrorCode::kCacheConfigSyntax) << spec;
  }
}

TEST(CacheModelConfig, RejectsNonPowerOfTwoLineSize) {
  const Expected<CacheConfig> parsed = parse_cache_config("l1_line=48");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code(), ErrorCode::kCacheGeometry);
}

TEST(CacheModelConfig, RejectsZeroWays) {
  const Expected<CacheConfig> parsed = parse_cache_config("l2_ways=0");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code(), ErrorCode::kCacheGeometry);
}

TEST(CacheModelConfig, RejectsCapacityNotDecomposing) {
  // 3 KiB cannot form a power-of-two number of 2-way 32-byte sets.
  const Expected<CacheConfig> parsed = parse_cache_config("l1_size=3k");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code(), ErrorCode::kCacheGeometry);
}

TEST(CacheModelConfig, RejectsZeroLatency) {
  const Expected<CacheConfig> parsed = parse_cache_config("mem=0");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code(), ErrorCode::kCacheLatency);
}

TEST(CacheModelConfig, RejectsL2LineBelowL1Line) {
  const Expected<CacheConfig> parsed =
      parse_cache_config("l1_line=64,l2_line=32");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code(), ErrorCode::kCacheHierarchy);
}

TEST(CacheModelConfig, RejectsIterationRange) {
  const Expected<CacheConfig> parsed = parse_cache_config("iters=2000");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code(), ErrorCode::kCacheConfigSyntax);
}

TEST(CacheModelConfig, WarnsOnInvertedLatencyOrder) {
  CacheConfig config;
  config.l1.hit_latency = 10;
  config.l2.hit_latency = 2;
  const ValidationReport report = validate(config);
  EXPECT_TRUE(report.ok());  // warning, not error
  EXPECT_FALSE(report.issues().empty());
}

TEST(CacheModelConfig, FingerprintSeparatesGeometries) {
  const CacheConfig a;
  CacheConfig b;
  b.l1.ways = 4;
  CacheConfig c;
  c.mem_latency = 41;
  EXPECT_EQ(fingerprint(a, 7), fingerprint(CacheConfig{}, 7));
  EXPECT_NE(fingerprint(a, 7), fingerprint(b, 7));
  EXPECT_NE(fingerprint(a, 7), fingerprint(c, 7));
  EXPECT_NE(fingerprint(a, 7), fingerprint(a, 8));
}

TEST(CacheModelSim, HitAfterFillAndLatencies) {
  const Expected<CacheConfig> config = parse_cache_config(
      "l1_size=1k,l1_ways=2,l1_line=32,l1_hit=1,l2_size=4k,l2_ways=2,"
      "l2_line=32,l2_hit=8,mem=40");
  ASSERT_TRUE(config.has_value());
  CacheModel model(*config);
  EXPECT_EQ(model.access(0x1000, 4), 40);  // compulsory miss
  EXPECT_EQ(model.access(0x1000, 4), 1);   // L1 hit
  EXPECT_EQ(model.access(0x101c, 4), 1);   // same 32-byte line
  EXPECT_EQ(model.access(0x1020, 4), 40);  // next line, fresh miss
  EXPECT_EQ(model.stats().accesses, 4u);
  EXPECT_EQ(model.stats().l1_hits, 2u);
  EXPECT_EQ(model.stats().mem_accesses, 2u);
}

TEST(CacheModelSim, LruEvictsOldestWay) {
  // Direct-mapped 2-set L1 (ways=1): two lines mapping to one set thrash,
  // but the 4-way L2 holds both, so the re-access hits L2, not memory.
  const Expected<CacheConfig> config = parse_cache_config(
      "l1_size=64,l1_ways=1,l1_line=32,l1_hit=1,l2_size=4k,l2_ways=4,"
      "l2_line=32,l2_hit=8,mem=40");
  ASSERT_TRUE(config.has_value());
  CacheModel model(*config);
  EXPECT_EQ(model.access(0x0, 4), 40);    // set 0 <- line A
  EXPECT_EQ(model.access(0x40, 4), 40);   // set 0 <- line B evicts A
  EXPECT_EQ(model.access(0x0, 4), 8);     // A gone from L1, still in L2
  EXPECT_EQ(model.access(0x40, 4), 8);    // B likewise
}

TEST(CacheModelSim, TwoWaySetKeepsBothLines) {
  const Expected<CacheConfig> config = parse_cache_config(
      "l1_size=128,l1_ways=2,l1_line=32,l1_hit=1,l2_size=4k,l2_ways=4,"
      "l2_line=32,l2_hit=8,mem=40");
  ASSERT_TRUE(config.has_value());
  CacheModel model(*config);
  model.access(0x0, 4);                  // set 0 way 0
  model.access(0x40, 4);                 // set 0 way 1
  EXPECT_EQ(model.access(0x0, 4), 1);    // both resident
  EXPECT_EQ(model.access(0x40, 4), 1);
}

TEST(CacheModelSim, StraddlingAccessCostsSlowestLine) {
  // 32-byte lines at BOTH levels so the second line is cold everywhere.
  const Expected<CacheConfig> config = parse_cache_config(
      "l1_size=1k,l1_ways=2,l1_line=32,l1_hit=1,l2_size=4k,l2_ways=2,"
      "l2_line=32,l2_hit=8,mem=40");
  ASSERT_TRUE(config.has_value());
  CacheModel model(*config);
  model.access(0x0, 4);                    // first line resident
  EXPECT_EQ(model.access(0x1e, 4), 40);    // straddles into a cold line
}

TEST(CacheModelSim, FlushDropsLinesKeepsStats) {
  CacheModel model(CacheConfig{});
  model.access(0x0, 4);
  model.access(0x0, 4);
  const std::uint64_t before = model.stats().accesses;
  model.flush();
  EXPECT_EQ(model.stats().accesses, before);
  EXPECT_EQ(model.access(0x0, 4), CacheConfig{}.mem_latency);  // cold again
}

// --- access-stream derivation + annotation -------------------------------

isa::ParsedBlock parse(std::string_view tac) {
  Expected<isa::ParsedBlock> parsed = isa::parse_tac_checked(tac);
  EXPECT_TRUE(parsed.has_value());
  return std::move(parsed).value();
}

constexpr std::string_view kLoadStoreKernel = R"(a = lw [p]
b = lh [q]
c = lbu [r]
s = addu a, b
t = xor s, c
sw [p], t
sh [q], 0x7fff
sb [r], 255
)";

TEST(MemStream, DerivesOnePerMemoryOp) {
  const isa::ParsedBlock block = parse(kLoadStoreKernel);
  const std::vector<MemOp> stream =
      derive_mem_stream(block.graph, CacheConfig{});
  EXPECT_EQ(stream.size(), 6u);  // 3 loads + 3 stores
  int stores = 0;
  for (const MemOp& op : stream) {
    EXPECT_GE(op.width, 1);
    EXPECT_LE(op.width, 4);
    if (op.is_store) ++stores;
  }
  EXPECT_EQ(stores, 3);
}

TEST(MemStream, LoadAndStoreThroughOnePointerShareARegion) {
  const isa::ParsedBlock block = parse(kLoadStoreKernel);
  const std::vector<MemOp> stream =
      derive_mem_stream(block.graph, CacheConfig{});
  // `a = lw [p]` and `sw [p], t` address the same region; `lh [q]` differs.
  std::vector<std::uint64_t> word_regions;
  for (const MemOp& op : stream)
    if (op.width == 4) word_regions.push_back(op.region_key);
  ASSERT_EQ(word_regions.size(), 2u);
  EXPECT_EQ(word_regions[0], word_regions[1]);
}

TEST(MemStream, EmptyForPureAluBlocks) {
  const isa::ParsedBlock block = parse("x = addu a, b\ny = xor x, a\n");
  EXPECT_TRUE(derive_mem_stream(block.graph, CacheConfig{}).empty());
}

TEST(MemStream, AnnotationIsDeterministic) {
  const isa::ParsedBlock block = parse(kLoadStoreKernel);
  dfg::Graph first = block.graph;
  dfg::Graph second = block.graph;
  const CacheStats stats_first = annotate_graph(first, CacheConfig{});
  const CacheStats stats_second = annotate_graph(second, CacheConfig{});
  EXPECT_EQ(stats_first.accesses, stats_second.accesses);
  EXPECT_EQ(stats_first.l1_hits, stats_second.l1_hits);
  for (dfg::NodeId v = 0; v < first.num_nodes(); ++v)
    EXPECT_EQ(first.node(v).mem_latency, second.node(v).mem_latency);
}

TEST(MemStream, AnnotationStableUnderRenumbering) {
  // The same block with its two independent load chains written in the
  // opposite order: node ids differ, canonical structure does not.
  const isa::ParsedBlock original = parse(
      "a = lw [p]\nb = lw [q]\ns = addu a, b\nsw [p], s\n");
  const isa::ParsedBlock renumbered = parse(
      "b = lw [q]\na = lw [p]\ns = addu a, b\nsw [p], s\n");
  dfg::Graph g1 = original.graph;
  dfg::Graph g2 = renumbered.graph;
  annotate_graph(g1, CacheConfig{});
  annotate_graph(g2, CacheConfig{});
  std::vector<int> lat1, lat2;
  for (dfg::NodeId v = 0; v < g1.num_nodes(); ++v)
    if (g1.node(v).mem_latency > 0) lat1.push_back(g1.node(v).mem_latency);
  for (dfg::NodeId v = 0; v < g2.num_nodes(); ++v)
    if (g2.node(v).mem_latency > 0) lat2.push_back(g2.node(v).mem_latency);
  std::sort(lat1.begin(), lat1.end());
  std::sort(lat2.begin(), lat2.end());
  EXPECT_EQ(lat1, lat2);
}

TEST(MemStream, AnnotatedLatenciesAreAtLeastOne) {
  const isa::ParsedBlock block = parse(kLoadStoreKernel);
  dfg::Graph graph = block.graph;
  const CacheStats stats = annotate_graph(graph, CacheConfig{});
  EXPECT_EQ(stats.annotated_nodes, 6u);
  for (dfg::NodeId v = 0; v < graph.num_nodes(); ++v) {
    const dfg::Node& n = graph.node(v);
    if (isa::is_memory(n.opcode)) {
      EXPECT_GE(n.mem_latency, 1) << "node " << v;
    }
  }
}

TEST(MemStream, NullModelKeepsGraphFingerprint) {
  // Unannotated graphs must hash exactly as they did before the cache model
  // existed — the conditional mix only fires for mem_latency > 0.
  const isa::ParsedBlock block = parse(kLoadStoreKernel);
  const std::uint64_t before = runtime::fingerprint(block.graph, 42);
  dfg::Graph annotated = block.graph;
  annotate_graph(annotated, CacheConfig{});
  EXPECT_EQ(runtime::fingerprint(block.graph, 42), before);
  EXPECT_NE(runtime::fingerprint(annotated, 42), before);
}

// --- end-to-end flow behaviour -------------------------------------------

std::uint64_t selection_digest(const flow::FlowResult& result) {
  runtime::Hash64 h(0x5eed);
  h.mix(result.replacement.base_time);
  h.mix(result.replacement.final_time);
  h.mix(result.selection.selected.size());
  for (const flow::SelectedIse& sel : result.selection.selected) {
    h.mix(static_cast<std::uint64_t>(sel.entry.block_index));
    sel.entry.ise.original_nodes.for_each(
        [&](dfg::NodeId v) { h.mix(static_cast<std::uint64_t>(v)); });
  }
  return h.value();
}

flow::FlowConfig flow_config() {
  flow::FlowConfig config;
  config.machine = sched::MachineConfig::make(2, {6, 3});
  config.repeats = 2;
  config.seed = 99;
  return config;
}

TEST(MemStreamFlow, JobsCountNeverChangesCacheModeledResults) {
  const flow::ProfiledProgram program = bench_suite::make_program(
      bench_suite::Benchmark::kDijkstra, bench_suite::OptLevel::kO3);
  flow::FlowConfig config = flow_config();
  config.cache = *parse_cache_config("l1_size=1k,l1_ways=1,l1_line=16,mem=40");
  runtime::ThreadPool::set_default_jobs(1);
  const flow::FlowResult serial =
      flow::run_design_flow(program, hw::HwLibrary::paper_default(), config);
  runtime::ThreadPool::set_default_jobs(4);
  const flow::FlowResult wide =
      flow::run_design_flow(program, hw::HwLibrary::paper_default(), config);
  runtime::ThreadPool::set_default_jobs(0);  // restore auto width
  EXPECT_TRUE(serial.cache_modeled);
  EXPECT_EQ(selection_digest(serial), selection_digest(wide));
  EXPECT_EQ(serial.cache_stats.accesses, wide.cache_stats.accesses);
  EXPECT_EQ(serial.cache_stats.l1_hits, wide.cache_stats.l1_hits);
}

TEST(MemStreamFlow, CacheModelChangesMemoryBoundKernelIseSet) {
  // The pinned memory-bound witness: dijkstra's O3 hot block is a chain of
  // dependent loads (pointer walks), so pricing misses must steer the
  // explorer to a different ISE set than the fixed-latency null model.
  const flow::ProfiledProgram program = bench_suite::make_program(
      bench_suite::Benchmark::kDijkstra, bench_suite::OptLevel::kO3);
  const flow::FlowConfig null_config = flow_config();
  flow::FlowConfig cache_config = flow_config();
  cache_config.cache =
      *parse_cache_config("l1_size=1k,l1_ways=1,l1_line=16,mem=40");
  const flow::FlowResult null_result = flow::run_design_flow(
      program, hw::HwLibrary::paper_default(), null_config);
  const flow::FlowResult cache_result = flow::run_design_flow(
      program, hw::HwLibrary::paper_default(), cache_config);
  EXPECT_FALSE(null_result.cache_modeled);
  EXPECT_TRUE(cache_result.cache_modeled);
  EXPECT_GT(cache_result.cache_stats.accesses, 0u);
  EXPECT_NE(selection_digest(null_result), selection_digest(cache_result));
  // The miss-priced schedule is strictly longer than the 1-cycle world.
  EXPECT_GT(cache_result.replacement.base_time,
            null_result.replacement.base_time);
}

TEST(MemStreamFlow, ValidateRejectsBadCacheConfig) {
  flow::FlowConfig config = flow_config();
  config.cache = CacheConfig{};
  config.cache->l1.ways = 0;
  const ValidationReport report = flow::validate(config);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_error().code(), ErrorCode::kCacheGeometry);
}

}  // namespace
}  // namespace isex::mem
