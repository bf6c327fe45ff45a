#include "flow/design_flow.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "bench_suite/kernels.hpp"
#include "flow/portfolio.hpp"
#include "golden_hash.hpp"
#include "isa/tac_parser.hpp"
#include "runtime/eval_cache.hpp"
#include "server/protocol.hpp"
#include "test_util.hpp"
#include "trace/metrics.hpp"

namespace isex::flow {
namespace {

class DesignFlowTest : public ::testing::Test {
 protected:
  hw::HwLibrary lib_ = hw::HwLibrary::paper_default();

  FlowConfig config(Algorithm algo = Algorithm::kMultiIssue) {
    FlowConfig c;
    c.machine = sched::MachineConfig::make(2, {6, 3});
    c.algorithm = algo;
    c.repeats = 2;  // keep tests fast
    c.seed = 99;
    return c;
  }
};

TEST_F(DesignFlowTest, ReducesCrc32) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO3);
  const FlowResult r = run_design_flow(program, lib_, config());
  EXPECT_GT(r.base_time(), 0u);
  EXPECT_LT(r.final_time(), r.base_time());
  EXPECT_GT(r.reduction(), 0.05);
  EXPECT_GT(r.num_ise_types(), 0);
  EXPECT_GT(r.total_area(), 0.0);
}

TEST_F(DesignFlowTest, AreaConstraintIsRespected) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kAdpcm, bench_suite::OptLevel::kO3);
  FlowConfig c = config();
  c.constraints.area_budget = 5000.0;
  const FlowResult r = run_design_flow(program, lib_, c);
  EXPECT_LE(r.total_area(), 5000.0);
}

TEST_F(DesignFlowTest, IseCountConstraintIsRespected) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kJpeg, bench_suite::OptLevel::kO3);
  FlowConfig c = config();
  c.constraints.max_ises = 1;
  const FlowResult r = run_design_flow(program, lib_, c);
  EXPECT_LE(r.num_ise_types(), 1);
}

TEST_F(DesignFlowTest, ZeroAreaBudgetMeansNoIses) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO0);
  FlowConfig c = config();
  c.constraints.area_budget = 0.0;
  const FlowResult r = run_design_flow(program, lib_, c);
  EXPECT_EQ(r.num_ise_types(), 0);
  EXPECT_EQ(r.base_time(), r.final_time());
}

TEST_F(DesignFlowTest, DeterministicAcrossRuns) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kBitcount, bench_suite::OptLevel::kO3);
  const FlowResult a = run_design_flow(program, lib_, config());
  const FlowResult b = run_design_flow(program, lib_, config());
  EXPECT_EQ(a.final_time(), b.final_time());
  EXPECT_DOUBLE_EQ(a.total_area(), b.total_area());
}

TEST_F(DesignFlowTest, HotBlocksComeFromProfile) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO3);
  const FlowResult r = run_design_flow(program, lib_, config());
  ASSERT_FALSE(r.hot_blocks.empty());
  // The bit-step block dominates CRC32's profile.
  EXPECT_EQ(r.hot_blocks[0], 0u);
}

TEST_F(DesignFlowTest, SingleIssueBaselineRuns) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO3);
  const FlowResult r =
      run_design_flow(program, lib_, config(Algorithm::kSingleIssue));
  EXPECT_LE(r.final_time(), r.base_time());
}

TEST_F(DesignFlowTest, MiBeatsSiOnAverageAtEqualArea) {
  // The paper's claim is about the *average* across the suite (individual
  // benchmark/seed pairs can invert): at the same area budget the
  // schedule-aware explorer must achieve at least the baseline's average
  // execution-time reduction.
  double mi_sum = 0.0;
  double si_sum = 0.0;
  for (const auto benchmark : bench_suite::all_benchmarks()) {
    const auto program =
        bench_suite::make_program(benchmark, bench_suite::OptLevel::kO3);
    FlowConfig c = config();
    c.constraints.area_budget = 20000.0;
    const FlowResult mi = run_design_flow(program, lib_, c);
    c.algorithm = Algorithm::kSingleIssue;
    const FlowResult si = run_design_flow(program, lib_, c);
    mi_sum += mi.reduction();
    si_sum += si.reduction();
  }
  EXPECT_GE(mi_sum, si_sum * 0.98);  // MI wins or ties on average
}

TEST(DesignFlow, NullEvalCacheLeavesProcessCacheUntouched) {
  // With params.eval_cache unset a flow memoizes through a private per-run
  // cache that no other run sees; a cache the caller passes takes every
  // lookup instead — with the same result either way.
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO3);
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  FlowConfig c;
  c.machine = sched::MachineConfig::make(2, {6, 3});
  c.repeats = 2;
  c.seed = 99;
  const trace::Counter& misses = trace::MetricsRegistry::global().counter(
      "isex_schedule_cache_misses_total");
  runtime::EvalCache passed;
  const double misses_before = misses.value();
  const FlowResult own = run_design_flow(program, lib, c);
  EXPECT_GT(misses.value(), misses_before);  // the private cache memoized
  EXPECT_EQ(passed.stats().misses, 0u);

  c.params.eval_cache = &passed;
  const FlowResult shared = run_design_flow(program, lib, c);
  EXPECT_GT(passed.stats().misses, 0u);
  EXPECT_EQ(server::flow_result_digest(shared),
            server::flow_result_digest(own));
}

// §5.1: the pipestage cap binds the flow, not only a bare explorer.  On
// each example kernel a cap of one cycle changes the flow's result, and no
// ISE it selects is slower than one cycle.
TEST(DesignFlow, PipestageCapBindsEverySelectedIse) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  for (const char* name : {"alpha_blend", "gf_mult", "sha_sigma"}) {
    std::ifstream in(std::string(ISEX_SOURCE_DIR) + "/examples/kernels/" +
                     name + ".tac");
    const std::string source((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    Expected<isa::ParsedBlock> block = isa::parse_tac_checked(source);
    ASSERT_TRUE(block.has_value()) << name;
    ProfiledProgram program;
    program.name = name;
    program.blocks.push_back(
        ProfiledBlock{"kernel", std::move(block->graph), 1});

    FlowConfig config = front_end_defaults();
    const FlowResult uncapped = run_design_flow(program, lib, config);
    config.max_ise_latency_cycles = 1;
    const FlowResult capped = run_design_flow(program, lib, config);
    ASSERT_FALSE(capped.selection.selected.empty()) << name;
    for (const SelectedIse& sel : capped.selection.selected)
      EXPECT_LE(sel.entry.ise.eval.latency_cycles, 1) << name;
    EXPECT_NE(server::flow_result_digest(capped),
              server::flow_result_digest(uncapped))
        << name;
  }
}

// The paper's six machine configurations all complete and never regress.
class FlowConfigSweep
    : public ::testing::TestWithParam<std::pair<int, isa::RegisterFileConfig>> {};

TEST_P(FlowConfigSweep, NeverRegressesOnFft) {
  const auto [issue, rf] = GetParam();
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kFft, bench_suite::OptLevel::kO3);
  FlowConfig c;
  c.machine = sched::MachineConfig::make(issue, rf);
  c.repeats = 2;
  c.seed = 4;
  const FlowResult r =
      run_design_flow(program, hw::HwLibrary::paper_default(), c);
  EXPECT_LE(r.final_time(), r.base_time());
}

// ---------------------------------------------------------------------------
// Golden digests of whole flows (server::flow_result_digest and
// server::portfolio_result_digest), pinned from the two-pipeline flow that
// preceded the shared one.  run_design_flow and run_portfolio_flow must keep
// reproducing them bit for bit.

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

struct SuiteGolden {
  Algorithm algorithm;
  int issue;
  isa::RegisterFileConfig rf;
  std::uint64_t digest;  ///< the 14 programs' digests folded in suite order
};

TEST(FlowGolden, SuiteDigestsMatchParent) {
  const SuiteGolden goldens[] = {
      {Algorithm::kMultiIssue, 2, {4, 2}, 0xbacdcfc446b1cd61ULL},
      {Algorithm::kMultiIssue, 4, {10, 5}, 0x11bdeb2bd35dda63ULL},
      {Algorithm::kSingleIssue, 2, {4, 2}, 0x6120553e463fe54cULL},
      {Algorithm::kSingleIssue, 4, {10, 5}, 0xbdfddf2c2211c818ULL},
  };
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  for (const SuiteGolden& g : goldens) {
    FlowConfig c;
    c.machine = sched::MachineConfig::make(g.issue, g.rf);
    c.algorithm = g.algorithm;
    c.repeats = 2;
    c.seed = 1;
    testing::Fnv1a folded;
    std::string per_program;
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3}) {
      for (const auto benchmark : bench_suite::all_benchmarks()) {
        const std::uint64_t digest = server::flow_result_digest(
            run_design_flow(bench_suite::make_program(benchmark, level), lib,
                            c));
        folded.mix(digest);
        per_program += std::string(bench_suite::name(benchmark)) + "-" +
                       std::string(bench_suite::name(level)) + " " +
                       hex(digest) + "\n";
      }
    }
    EXPECT_EQ(hex(folded.value()), hex(g.digest))
        << (g.algorithm == Algorithm::kMultiIssue ? "MI" : "SI") << " on "
        << g.issue << "-issue " << g.rf.label() << "; per-program digests:\n"
        << per_program;
  }

  // The cache model's two-level spec from the portfolio_mem benchmark.
  FlowConfig cached;
  cached.machine = sched::MachineConfig::make(2, {6, 3});
  cached.repeats = 2;
  cached.seed = 1;
  cached.cache = *mem::parse_cache_config(
      "l1_size=2k,l1_ways=2,l1_line=32,l1_hit=1,"
      "l2_size=32k,l2_ways=8,l2_line=64,l2_hit=8,mem=40");
  const FlowResult r = run_design_flow(
      bench_suite::make_program(bench_suite::Benchmark::kCrc32,
                                bench_suite::OptLevel::kO3),
      lib, cached);
  EXPECT_TRUE(r.cache_modeled);
  EXPECT_EQ(hex(server::flow_result_digest(r)), hex(0x4c68997d36f07ba2ULL));
}

TEST(FlowGolden, PortfolioDigestMatchesParent) {
  const auto row = [](bench_suite::Benchmark benchmark, double weight) {
    PortfolioEntry entry;
    entry.program =
        bench_suite::make_program(benchmark, bench_suite::OptLevel::kO3);
    entry.weight = weight;
    return entry;
  };
  std::vector<PortfolioEntry> entries;
  entries.push_back(row(bench_suite::Benchmark::kCrc32, 2.0));
  entries.push_back(row(bench_suite::Benchmark::kFft, 1.0));
  // The same program under another name: every one of its jobs dedups.
  entries.push_back(row(bench_suite::Benchmark::kCrc32, 3.0));
  entries.back().program.name += "-again";
  entries.push_back(row(bench_suite::Benchmark::kAdpcm, 1.5));

  PortfolioConfig config;
  config.base.machine = sched::MachineConfig::make(2, {6, 3});
  config.base.repeats = 2;
  config.base.seed = 1;
  const PortfolioResult r =
      run_portfolio_flow(entries, hw::HwLibrary::paper_default(), config);
  EXPECT_GT(r.deduped_jobs, 0u);
  EXPECT_EQ(hex(server::portfolio_result_digest(r)), hex(0x30f1daf20b7a8471ULL));
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, FlowConfigSweep,
    ::testing::Values(std::pair{2, isa::RegisterFileConfig{4, 2}},
                      std::pair{2, isa::RegisterFileConfig{6, 3}},
                      std::pair{3, isa::RegisterFileConfig{6, 3}},
                      std::pair{3, isa::RegisterFileConfig{8, 4}},
                      std::pair{4, isa::RegisterFileConfig{8, 4}},
                      std::pair{4, isa::RegisterFileConfig{10, 5}}));

}  // namespace
}  // namespace isex::flow
