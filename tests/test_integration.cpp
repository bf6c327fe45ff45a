// Cross-module integration properties: the whole pipeline (parse → explore
// → select → replace → schedule) on realistic inputs, plus the paper's
// qualitative claims as assertions.
#include <gtest/gtest.h>

#include "baseline/si_explorer.hpp"
#include "bench_suite/kernels.hpp"
#include "core/mi_explorer.hpp"
#include "flow/design_flow.hpp"
#include "isa/tac_parser.hpp"
#include "sched/list_scheduler.hpp"
#include "test_util.hpp"

namespace isex {
namespace {

TEST(Integration, TacToIseEndToEnd) {
  // Figure 1.3.1's moral: dependence chains bound wide machines, ISEs cut
  // through them.
  const isa::ParsedBlock block = isa::parse_tac(R"(
    t1 = addu a, b
    t2 = xor t1, c
    t3 = and t2, d
    t4 = srl t3, 2
    t5 = addu t4, e
    live_out t5
  )");
  const auto machine = sched::MachineConfig::make(4, {10, 5});
  const sched::ListScheduler scheduler(machine);
  // Infinite-ish width still needs 5 cycles: pure dependence.
  EXPECT_EQ(scheduler.cycles(block.graph), 5);

  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const core::MultiIssueExplorer explorer(machine, format, lib);
  Rng rng(77);
  const auto result = explorer.explore_best_of(block.graph, 5, rng);
  EXPECT_LT(result.final_cycles, 5);
}

TEST(Integration, CommittedIseLatencyMatchesAsfuDepth) {
  Rng rng(3);
  const dfg::Graph g = testing::make_random_dag(25, rng, 0.5);
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const core::MultiIssueExplorer explorer(machine, format, lib);
  const auto result = explorer.explore(g, rng);
  const hw::ClockSpec clock;
  for (const auto& ise : result.ises) {
    EXPECT_EQ(ise.eval.latency_cycles, clock.cycles_for(ise.eval.depth_ns));
    EXPECT_GT(ise.eval.depth_ns, 0.0);
  }
}

TEST(Integration, TighterAreaBudgetNeverImprovesResult) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kAdpcm, bench_suite::OptLevel::kO3);
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  std::uint64_t previous_final = 0;
  for (const double budget : {0.0, 5000.0, 20000.0, 80000.0}) {
    flow::FlowConfig c;
    c.machine = sched::MachineConfig::make(2, {6, 3});
    c.constraints.area_budget = budget;
    c.repeats = 2;
    c.seed = 12;
    const auto r = run_design_flow(program, lib, c);
    if (previous_final != 0) {
      EXPECT_LE(r.final_time(), previous_final);
    }
    previous_final = r.final_time();
    EXPECT_LE(r.total_area(), budget);
  }
}

TEST(Integration, MoreIsesNeverHurt) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kJpeg, bench_suite::OptLevel::kO3);
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  std::uint64_t previous_final = 0;
  for (const int n : {1, 2, 4, 8}) {
    flow::FlowConfig c;
    c.machine = sched::MachineConfig::make(2, {6, 3});
    c.constraints.max_ises = n;
    c.repeats = 2;
    c.seed = 21;
    const auto r = run_design_flow(program, lib, c);
    if (previous_final != 0) {
      EXPECT_LE(r.final_time(), previous_final);
    }
    previous_final = r.final_time();
  }
}

TEST(Integration, FirstIseDominatesReduction) {
  // Fig 5.2.3: most of the reduction comes from the first ISE.
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO3);
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  flow::FlowConfig c;
  c.machine = sched::MachineConfig::make(2, {6, 3});
  c.repeats = 2;
  c.seed = 31;
  c.constraints.max_ises = 1;
  const auto one = run_design_flow(program, lib, c);
  c.constraints.max_ises = 32;
  const auto many = run_design_flow(program, lib, c);
  ASSERT_GT(many.reduction(), 0.0);
  EXPECT_GT(one.reduction(), many.reduction() * 0.4);
}

TEST(Integration, SiSpendsMoreAreaThanMiForItsCandidates) {
  // §1.4/case-study claim: legality-only exploration wastes silicon on
  // off-critical-path operations.  Compare total candidate area proposed by
  // each explorer across the suite's unrolled flavors.
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const core::MultiIssueExplorer mi(machine, format, lib);
  const baseline::SingleIssueExplorer si(format, lib);

  double mi_area = 0.0;
  double si_area = 0.0;
  for (const auto benchmark :
       {bench_suite::Benchmark::kJpeg, bench_suite::Benchmark::kFft}) {
    const auto program =
        bench_suite::make_program(benchmark, bench_suite::OptLevel::kO3);
    Rng rng_mi(1);
    Rng rng_si(1);
    mi_area += mi.explore_best_of(program.blocks[0].graph, 2, rng_mi).total_area();
    si_area += si.explore_best_of(program.blocks[0].graph, 2, rng_si).total_area();
  }
  EXPECT_GE(si_area, mi_area);
}

TEST(Integration, ExplorationScalesToLargeBlocks) {
  // §2.1: N = 100 is "the standard case" that exhaustive search cannot do.
  Rng rng(5);
  const dfg::Graph g = testing::make_random_dag(100, rng, 0.55);
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  core::ExplorerParams params;
  params.max_iterations = 60;  // keep CI fast; convergence not required
  const core::MultiIssueExplorer explorer(machine, format, lib, params);
  const auto result = explorer.explore(g, rng);
  EXPECT_GT(result.base_cycles, 0);
  EXPECT_LE(result.final_cycles, result.base_cycles);
}

}  // namespace
}  // namespace isex
