// Differential property test: random straight-line TAC programs are
// generated together with their expected results (computed through
// exec::apply_alu while generating); the text is then parsed and executed
// by the evaluator.  Any disagreement pins a bug in the lexer, parser,
// statement recording, or evaluator operand binding.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exec/alu.hpp"
#include "exec/evaluator.hpp"
#include "isa/tac_parser.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace isex {
namespace {

struct GeneratedProgram {
  std::string source;
  std::vector<std::pair<std::string, std::uint32_t>> live_ins;
  std::vector<std::pair<std::string, std::uint32_t>> expected;
};

GeneratedProgram generate(Rng& rng, int length) {
  // Opcode pool: register-register and immediate forms.
  static constexpr isa::Opcode kRegOps[] = {
      isa::Opcode::kAddu, isa::Opcode::kSubu, isa::Opcode::kXor,
      isa::Opcode::kAnd,  isa::Opcode::kOr,   isa::Opcode::kNor,
      isa::Opcode::kSltu, isa::Opcode::kMult, isa::Opcode::kSllv,
      isa::Opcode::kSrlv, isa::Opcode::kSrav, isa::Opcode::kSlt,
  };
  static constexpr isa::Opcode kImmOps[] = {
      isa::Opcode::kAddiu, isa::Opcode::kAndi, isa::Opcode::kOri,
      isa::Opcode::kXori,  isa::Opcode::kSll,  isa::Opcode::kSrl,
      isa::Opcode::kSra,   isa::Opcode::kSlti, isa::Opcode::kSltiu,
  };

  GeneratedProgram out;
  std::vector<std::pair<std::string, std::uint32_t>> env;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "in" + std::to_string(i);
    const std::uint32_t value = rng.next_u32();
    env.emplace_back(name, value);
    out.live_ins.emplace_back(name, value);
  }

  std::ostringstream src;
  for (int i = 0; i < length; ++i) {
    const std::string dest = testing::indexed_name("v", i);
    const auto& [a_name, a_val] =
        env[rng.next_below(static_cast<std::uint32_t>(env.size()))];
    std::uint32_t result = 0;
    if (rng.next_double() < 0.5) {
      const auto op = kRegOps[rng.next_below(std::size(kRegOps))];
      const auto& [b_name, b_val] =
          env[rng.next_below(static_cast<std::uint32_t>(env.size()))];
      src << dest << " = " << isa::mnemonic(op) << " " << a_name << ", "
          << b_name << "\n";
      result = exec::apply_alu(op, a_val, b_val);
    } else {
      const auto op = kImmOps[rng.next_below(std::size(kImmOps))];
      const std::uint32_t imm = rng.next_below(65536);
      src << dest << " = " << isa::mnemonic(op) << " " << a_name << ", " << imm
          << "\n";
      result = exec::apply_alu(op, a_val, imm);
    }
    env.emplace_back(dest, result);
    out.expected.emplace_back(dest, result);
  }
  out.source = src.str();
  return out;
}

class DifferentialProperty : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialProperty, ParserAndEvaluatorAgreeWithGenerator) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6271);
  for (int trial = 0; trial < 10; ++trial) {
    const GeneratedProgram prog = generate(rng, 24);
    const isa::ParsedBlock block = isa::parse_tac(prog.source);
    ASSERT_EQ(block.graph.num_nodes(), 24u);
    exec::Evaluator ev;
    for (const auto& [name, value] : prog.live_ins) ev.set(name, value);
    ev.run(block);
    for (const auto& [name, value] : prog.expected) {
      ASSERT_EQ(ev.get(name), value) << name << " in:\n" << prog.source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialProperty, ::testing::Range(1, 11));

}  // namespace
}  // namespace isex
