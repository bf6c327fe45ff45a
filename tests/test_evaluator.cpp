#include "exec/evaluator.hpp"

#include <gtest/gtest.h>

namespace isex::exec {
namespace {

TEST(Evaluator, StraightLineArithmetic) {
  const auto block = isa::parse_tac(R"(
    t = addu a, b
    u = sll t, 2
    v = subu u, a
  )");
  Evaluator ev;
  ev.set("a", 3);
  ev.set("b", 4);
  ev.run(block);
  EXPECT_EQ(ev.get("t"), 7u);
  EXPECT_EQ(ev.get("u"), 28u);
  EXPECT_EQ(ev.get("v"), 25u);
}

TEST(Evaluator, ImmediatesIncludingHexAndNegative) {
  const auto block = isa::parse_tac(R"(
    a = andi x, 0xff
    b = addiu x, -1
    c = xori x, 15
  )");
  Evaluator ev;
  ev.set("x", 0x1234u);
  ev.run(block);
  EXPECT_EQ(ev.get("a"), 0x34u);
  EXPECT_EQ(ev.get("b"), 0x1233u);
  EXPECT_EQ(ev.get("c"), 0x123Bu);
}

TEST(Evaluator, LoadStoreRoundTrip) {
  const auto block = isa::parse_tac(R"(
    v = lw [p]
    d = addu v, one
    q = addiu p, 4
    sw [q], d
  )");
  Evaluator ev;
  ev.set("p", 0x100);
  ev.set("one", 1);
  ev.memory().store_word(0x100, 41);
  ev.run(block);
  EXPECT_EQ(ev.get("v"), 41u);
  EXPECT_EQ(ev.memory().load_word(0x104), 42u);
}

TEST(Evaluator, SignExtendingLoads) {
  const auto block = isa::parse_tac(R"(
    sb0 = lb [p]
    ub0 = lbu [p]
    sh0 = lh [q]
    uh0 = lhu [q]
  )");
  Evaluator ev;
  ev.set("p", 0);
  ev.set("q", 4);
  ev.memory().store_byte(0, 0x80);
  ev.memory().store_half(4, 0x8000);
  ev.run(block);
  EXPECT_EQ(ev.get("sb0"), 0xFFFFFF80u);
  EXPECT_EQ(ev.get("ub0"), 0x80u);
  EXPECT_EQ(ev.get("sh0"), 0xFFFF8000u);
  EXPECT_EQ(ev.get("uh0"), 0x8000u);
}

TEST(Evaluator, UndefinedLiveInThrows) {
  const auto block = isa::parse_tac("t = addu a, b");
  Evaluator ev;
  ev.set("a", 1);  // b missing
  EXPECT_THROW(ev.run(block), EvalError);
}

TEST(Evaluator, RunForReturnsNamedOutput) {
  const auto block = isa::parse_tac("t = mult a, a");
  Evaluator ev;
  ev.set("a", 12);
  EXPECT_EQ(ev.run_for(block, "t"), 144u);
}

TEST(Evaluator, LuiOriMaterializesConstant) {
  const auto block = isa::parse_tac(R"(
    hi = lui 0x5555
    c55 = ori hi, 0x5555
  )");
  Evaluator ev;
  ev.run(block);
  EXPECT_EQ(ev.get("c55"), 0x55555555u);
}

TEST(Evaluator, SubuFromZeroImmediateBuildsMask) {
  // The kernels' branchless-select idiom.
  const auto block = isa::parse_tac(R"(
    m = subu 0, c
    nm = nor m, m
    s0 = and x, m
    s1 = and y, nm
    sel = or s0, s1
  )");
  for (const std::uint32_t c : {0u, 1u}) {
    Evaluator ev;
    ev.set("c", c);
    ev.set("x", 111);
    ev.set("y", 222);
    ev.run(block);
    EXPECT_EQ(ev.get("sel"), c ? 111u : 222u);
  }
}

TEST(Evaluator, StatementsRecordProgramOrder) {
  const auto block = isa::parse_tac(R"(
    a = addu x, y
    b = xor a, x
  )");
  ASSERT_EQ(block.statements.size(), 2u);
  EXPECT_EQ(block.statements[0].dest, "a");
  EXPECT_EQ(block.statements[1].dest, "b");
  EXPECT_EQ(block.graph.node(block.statements[0].node).label, "a");
  EXPECT_EQ(block.statements[1].line, 3);
}

}  // namespace
}  // namespace isex::exec
