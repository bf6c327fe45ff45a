// Validator coverage: dfg::validate, sched::validate(MachineConfig),
// flow::validate(ProfiledProgram / FlowConfig), and the checked design-flow
// boundary (validator-rejected inputs never reach the explorer).
#include <gtest/gtest.h>

#include "bench_suite/kernels.hpp"
#include "dfg/validate.hpp"
#include "flow/design_flow.hpp"
#include "flow/validate.hpp"
#include "hwlib/hw_library.hpp"
#include "isa/tac_parser.hpp"
#include "test_util.hpp"

namespace isex {
namespace {

bool has_code(const ValidationReport& report, ErrorCode code) {
  for (const Error& e : report.issues())
    if (e.code() == code) return true;
  return false;
}

// ---- dfg::validate --------------------------------------------------------

TEST(DfgValidate, AcceptsParserOutput) {
  const auto block = isa::parse_tac(R"(
    t0 = xor a, b
    t1 = srl t0, 4
    t2 = and t0, t1
    sw [p], t2
  )");
  const ValidationReport report = dfg::validate(block.graph);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(DfgValidate, AcceptsEveryBenchSuiteKernel) {
  for (const auto level :
       {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3}) {
    for (const auto benchmark : bench_suite::all_benchmarks()) {
      const auto program = bench_suite::make_program(benchmark, level);
      for (const auto& block : program.blocks) {
        const ValidationReport report = dfg::validate(block.graph);
        EXPECT_TRUE(report.ok())
            << program.name << "/" << block.name << ":\n"
            << report.to_string();
      }
    }
  }
}

TEST(DfgValidate, DetectsDirectedCycle) {
  dfg::Graph g;
  const auto a = g.add_node(isa::Opcode::kAddu, "a");
  const auto b = g.add_node(isa::Opcode::kXor, "b");
  g.add_edge(a, b);
  g.add_edge(b, a);
  const ValidationReport report = dfg::validate(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ErrorCode::kGraphCycle)) << report.to_string();
}

TEST(DfgValidate, DetectsResultlessProducer) {
  dfg::Graph g;
  const auto store = g.add_node(isa::Opcode::kSw, "st");
  const auto use = g.add_node(isa::Opcode::kAddu, "u");
  g.add_edge(store, use);  // a store produces no value to consume
  g.set_live_out(store, true);
  const ValidationReport report = dfg::validate(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ErrorCode::kGraphResultlessProducer))
      << report.to_string();
}

TEST(DfgValidate, OverArityIsAWarningNotAnError) {
  dfg::Graph g;
  const auto v = g.add_node(isa::Opcode::kSll, "s");  // 1 register source
  g.set_extern_inputs(v, 3);
  const ValidationReport report = dfg::validate(g);
  EXPECT_TRUE(report.ok()) << report.to_string();  // warnings only
  EXPECT_TRUE(has_code(report, ErrorCode::kGraphArity)) << report.to_string();
}

TEST(DfgValidate, DetectsNegativeLiveInValueId) {
  dfg::Graph g;
  const auto v = g.add_node(isa::Opcode::kAddu, "a");
  g.set_extern_input_ids(v, {0, -1});
  const ValidationReport report = dfg::validate(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ErrorCode::kGraphLiveInInconsistent))
      << report.to_string();
}

TEST(DfgValidate, DetectsCorruptIseSupernode) {
  dfg::Graph g;
  dfg::IseInfo bad;
  bad.latency_cycles = 0;
  bad.area = -1.0;
  g.add_ise_node(bad, "ISE");
  const ValidationReport report = dfg::validate(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ErrorCode::kGraphIseInfoInvalid))
      << report.to_string();
}

TEST(DfgValidate, DetectsOpcodeOutsideTheEnum) {
  dfg::Graph g;
  g.add_node(static_cast<isa::Opcode>(200), "bogus");
  const ValidationReport report = dfg::validate(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ErrorCode::kGraphOpcodeIllegal))
      << report.to_string();
}

TEST(DfgValidate, AcceptsLegitimateCollapsedGraph) {
  const auto block = isa::parse_tac(R"(
    t0 = xor a, b
    t1 = and t0, c
    t2 = or t0, t1
    live_out t2
  )");
  dfg::NodeSet members(block.graph.num_nodes());
  members.insert(testing::defined_node(block, "t0"));
  members.insert(testing::defined_node(block, "t1"));
  dfg::IseInfo info;
  info.latency_cycles = 1;
  info.num_inputs = 3;
  info.num_outputs = 1;
  const dfg::Graph reduced = block.graph.collapse(members, info);
  const ValidationReport report = dfg::validate(reduced);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---- sched::validate ------------------------------------------------------

TEST(MachineConfigValidate, AcceptsThePaperSweep) {
  for (const int issue : {2, 3, 4}) {
    for (const auto ports : {isa::RegisterFileConfig{4, 2},
                             isa::RegisterFileConfig{6, 3},
                             isa::RegisterFileConfig{8, 4},
                             isa::RegisterFileConfig{10, 5}}) {
      const ValidationReport report =
          sched::validate(sched::MachineConfig::make(issue, ports));
      EXPECT_TRUE(report.ok()) << report.to_string();
      EXPECT_TRUE(report.empty()) << report.to_string();
    }
  }
}

TEST(MachineConfigValidate, WarnsOutsideTheSweep) {
  const ValidationReport report =
      sched::validate(sched::MachineConfig::make(8, {20, 9}));
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(has_code(report, ErrorCode::kConfigOutsidePaperSweep));
}

TEST(MachineConfigValidate, RejectsDegenerateConfigs) {
  sched::MachineConfig bad;
  bad.issue_width = 0;
  bad.reg_file = {0, 0};
  bad.fu_counts = {0, -1, 1, 1, 1};
  const ValidationReport report = sched::validate(bad);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ErrorCode::kConfigIssueWidth));
  EXPECT_TRUE(has_code(report, ErrorCode::kConfigPorts));
  EXPECT_TRUE(has_code(report, ErrorCode::kConfigFuCounts));
}

// ---- flow::validate -------------------------------------------------------

TEST(FlowValidate, RejectsEmptyProgram) {
  flow::ProfiledProgram program;
  program.name = "empty";
  const ValidationReport report = flow::validate(program);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ErrorCode::kProgramEmpty));
}

TEST(FlowValidate, RejectsZeroExecCountAndNamesTheBlock) {
  flow::ProfiledProgram program;
  program.name = "p";
  flow::ProfiledBlock block;
  block.name = "hot";
  block.graph = isa::parse_tac("t = addu a, b").graph;
  block.exec_count = 0;
  program.blocks.push_back(std::move(block));
  const ValidationReport report = flow::validate(program);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(has_code(report, ErrorCode::kProgramExecCount));
  EXPECT_NE(report.first_error().message().find("hot"), std::string::npos);
}

TEST(FlowValidate, SurfacesBlockGraphDefectsWithTheirOwnCodes) {
  flow::ProfiledProgram program;
  program.name = "p";
  flow::ProfiledBlock block;
  block.name = "cyclic";
  const auto a = block.graph.add_node(isa::Opcode::kAddu, "a");
  const auto b = block.graph.add_node(isa::Opcode::kXor, "b");
  block.graph.add_edge(a, b);
  block.graph.add_edge(b, a);
  program.blocks.push_back(std::move(block));
  const ValidationReport report = flow::validate(program);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ErrorCode::kGraphCycle)) << report.to_string();
}

TEST(FlowValidate, RejectsBadFlowConfig) {
  flow::FlowConfig config;
  config.repeats = 0;
  config.params.max_iterations = 0;
  config.params.colonies = 0;
  const ValidationReport report = flow::validate(config);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.error_count(), 3u);
  EXPECT_TRUE(has_code(report, ErrorCode::kFlowParamsInvalid));
}

TEST(FlowValidate, AcceptsTheDefaultFlowConfig) {
  const ValidationReport report = flow::validate(flow::FlowConfig{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---- checked design-flow boundary ----------------------------------------

TEST(DesignFlowChecked, RejectedInputNeverReachesTheExplorer) {
  flow::ProfiledProgram program;
  program.name = "p";
  flow::ProfiledBlock block;
  block.name = "cyclic";
  const auto a = block.graph.add_node(isa::Opcode::kAddu, "a");
  const auto b = block.graph.add_node(isa::Opcode::kXor, "b");
  block.graph.add_edge(a, b);
  block.graph.add_edge(b, a);
  program.blocks.push_back(std::move(block));

  const auto result = flow::run_design_flow_checked(
      program, hw::HwLibrary::paper_default(), flow::FlowConfig{});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code(), ErrorCode::kGraphCycle)
      << result.error().to_string();
}

TEST(DesignFlowChecked, ThrowingWrapperRaisesValidationException) {
  flow::ProfiledProgram program;  // no blocks at all
  program.name = "empty";
  EXPECT_THROW(flow::run_design_flow(program, hw::HwLibrary::paper_default(),
                                     flow::FlowConfig{}),
               ValidationException);
}

TEST(DesignFlowChecked, AcceptsAndRunsAValidProgram) {
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO3);
  flow::FlowConfig config;
  config.repeats = 1;
  config.seed = 7;
  const auto result = flow::run_design_flow_checked(
      program, hw::HwLibrary::paper_default(), config);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->base_time(), 0u);
}

}  // namespace
}  // namespace isex
