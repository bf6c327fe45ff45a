#include "rtl/verilog.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace isex::rtl {
namespace {

isa::ParsedBlock crc_like() {
  return isa::parse_tac(R"(
    b0 = andi crc, 1
    t0 = xor b0, bit
    t1 = subu 0, t0
    m0 = and t1, poly
    s0 = srl crc, 1
    crc2 = xor s0, m0
    live_out crc2
  )");
}

TEST(Verilog, EmitsWellFormedModule) {
  const auto block = crc_like();
  const std::string v = emit_asfu(block, block.graph.all_nodes());
  EXPECT_NE(v.find("module asfu ("), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // Inputs: crc, bit, poly (deduplicated, crc used twice).
  EXPECT_NE(v.find("input  wire [31:0] in_crc"), std::string::npos);
  EXPECT_NE(v.find("input  wire [31:0] in_bit"), std::string::npos);
  EXPECT_NE(v.find("input  wire [31:0] in_poly"), std::string::npos);
  EXPECT_EQ(v.find("in_crc,\n  input  wire [31:0] in_crc"), std::string::npos);
  // Single escaping value.
  EXPECT_NE(v.find("output wire [31:0] out_crc2"), std::string::npos);
  // One assign per member plus one per output.
  std::size_t assigns = 0;
  for (std::size_t pos = v.find("assign"); pos != std::string::npos;
       pos = v.find("assign", pos + 1))
    ++assigns;
  EXPECT_EQ(assigns, 6u + 1u);
}

TEST(Verilog, ExpressionsMatchOpcodes) {
  const auto block = crc_like();
  const std::string v = emit_asfu(block, block.graph.all_nodes());
  EXPECT_NE(v.find("assign w_b0 = in_crc & 32'd1;"), std::string::npos);
  EXPECT_NE(v.find("assign w_t0 = w_b0 ^ in_bit;"), std::string::npos);
  EXPECT_NE(v.find("assign w_t1 = 32'd0 - w_t0;"), std::string::npos);
  EXPECT_NE(v.find("assign w_s0 = in_crc >> (32'd1 & 32'd31);"),
            std::string::npos);
  EXPECT_NE(v.find("assign w_crc2 = w_s0 ^ w_m0;"), std::string::npos);
}

TEST(Verilog, PartialCandidateTurnsBoundaryIntoPorts) {
  const auto block = crc_like();
  // Only {t1, m0}: t0 and poly become inputs; m0 escapes to crc2.
  dfg::NodeSet members(block.graph.num_nodes());
  members.insert(testing::defined_node(block, "t1"));
  members.insert(testing::defined_node(block, "m0"));
  const std::string v = emit_asfu(block, members);
  EXPECT_NE(v.find("input  wire [31:0] in_t0"), std::string::npos);
  EXPECT_NE(v.find("input  wire [31:0] in_poly"), std::string::npos);
  EXPECT_NE(v.find("output wire [31:0] out_m0"), std::string::npos);
  EXPECT_EQ(v.find("in_crc"), std::string::npos);
}

TEST(Verilog, SignedOpsUseSignedForms) {
  const auto block = isa::parse_tac(R"(
    a = sra x, 3
    b = slt a, y
    live_out b
  )");
  const std::string v = emit_asfu(block, block.graph.all_nodes());
  EXPECT_NE(v.find("$signed(in_x) >>>"), std::string::npos);
  EXPECT_NE(v.find("($signed(w_a) < $signed(in_y)) ? 32'd1 : 32'd0"),
            std::string::npos);
}

TEST(Verilog, ModuleNameAndEvaluationComment) {
  const auto block = crc_like();
  hw::AsfuEvaluation eval;
  eval.depth_ns = 8.5;
  eval.latency_cycles = 1;
  eval.area = 2719.5;
  VerilogOptions options;
  options.module_name = "crc_step_ise";
  options.evaluation = &eval;
  const std::string v = emit_asfu(block, block.graph.all_nodes(), options);
  EXPECT_NE(v.find("module crc_step_ise ("), std::string::npos);
  EXPECT_NE(v.find("latency 1 cycle(s)"), std::string::npos);
  EXPECT_NE(v.find("2719.5"), std::string::npos);
}

TEST(Verilog, NegativeImmediates) {
  const auto block = isa::parse_tac("a = addiu x, -4\nlive_out a");
  const std::string v = emit_asfu(block, block.graph.all_nodes());
  EXPECT_NE(v.find("in_x + -32'sd4"), std::string::npos);
}

TEST(Verilog, LuiConcatenation) {
  const auto block = isa::parse_tac("h = lui 0x5555\nlive_out h");
  const std::string v = emit_asfu(block, block.graph.all_nodes());
  EXPECT_NE(v.find("{16'd21845, 16'h0000}"), std::string::npos);
}

}  // namespace
}  // namespace isex::rtl
