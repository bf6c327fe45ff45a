// PISA-like instruction set model.
//
// The paper evaluates on the Portable Instruction Set Architecture (PISA), a
// MIPS-like ISA used by SimpleScalar.  This module defines the opcode subset
// the exploration operates on and the static traits the algorithm queries:
// which functional-unit class executes an opcode, whether it touches memory
// (memory operations may never enter an ISE, §4.2 constraint 4), and a
// human-readable mnemonic.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "util/assert.hpp"

namespace isex::isa {

/// PISA opcode subset.  Covers every opcode in the paper's Table 5.1.1 plus
/// the memory/branch/move operations needed to express realistic basic
/// blocks.
enum class Opcode : std::uint8_t {
  // Arithmetic
  kAdd, kAddi, kAddu, kAddiu,
  kSub, kSubu,
  kMult, kMultu,
  kDiv, kDivu,
  // Logic
  kAnd, kAndi,
  kOr, kOri,
  kXor, kXori,
  kNor,
  // Shifts
  kSll, kSllv, kSrl, kSrlv, kSra, kSrav,
  // Compare / set
  kSlt, kSlti, kSltu, kSltiu,
  // Immediates / moves
  kLui, kMov,
  // Memory
  kLw, kLh, kLhu, kLb, kLbu,
  kSw, kSh, kSb,
  // Control (kept for completeness; always excluded from ISEs)
  kBeq, kBne,
  kNop,
};

/// Number of distinct opcodes (for table sizing / iteration).
inline constexpr std::size_t kOpcodeCount = static_cast<std::size_t>(Opcode::kNop) + 1;

/// Functional-unit class an opcode issues to in the core pipeline.
enum class FuClass : std::uint8_t { kAlu, kMult, kDiv, kMem, kBranch };

/// Coarse semantic category, used by the kernel generators and by tests.
enum class OpCategory : std::uint8_t {
  kArith, kLogic, kShift, kCompare, kMove, kLoad, kStore, kBranch, kNop,
};

struct OpcodeTraits {
  std::string_view mnemonic;
  FuClass fu = FuClass::kAlu;
  OpCategory category = OpCategory::kArith;
  /// Number of register source operands (immediate forms have 1).
  std::uint8_t num_srcs = 2;
  /// True when the opcode produces a register result.
  bool has_dst = true;
};

// The traits table is defined in this header so traits() inlines into the
// scheduler's and the walk's inner loops.
namespace detail {

constexpr std::array<OpcodeTraits, kOpcodeCount> make_traits_table() {
  std::array<OpcodeTraits, kOpcodeCount> t{};
  auto set = [&](Opcode op, std::string_view mn, FuClass fu, OpCategory cat,
                 std::uint8_t srcs, bool dst) {
    t[static_cast<std::size_t>(op)] = OpcodeTraits{mn, fu, cat, srcs, dst};
  };
  set(Opcode::kAdd, "add", FuClass::kAlu, OpCategory::kArith, 2, true);
  set(Opcode::kAddi, "addi", FuClass::kAlu, OpCategory::kArith, 1, true);
  set(Opcode::kAddu, "addu", FuClass::kAlu, OpCategory::kArith, 2, true);
  set(Opcode::kAddiu, "addiu", FuClass::kAlu, OpCategory::kArith, 1, true);
  set(Opcode::kSub, "sub", FuClass::kAlu, OpCategory::kArith, 2, true);
  set(Opcode::kSubu, "subu", FuClass::kAlu, OpCategory::kArith, 2, true);
  set(Opcode::kMult, "mult", FuClass::kMult, OpCategory::kArith, 2, true);
  set(Opcode::kMultu, "multu", FuClass::kMult, OpCategory::kArith, 2, true);
  set(Opcode::kDiv, "div", FuClass::kDiv, OpCategory::kArith, 2, true);
  set(Opcode::kDivu, "divu", FuClass::kDiv, OpCategory::kArith, 2, true);
  set(Opcode::kAnd, "and", FuClass::kAlu, OpCategory::kLogic, 2, true);
  set(Opcode::kAndi, "andi", FuClass::kAlu, OpCategory::kLogic, 1, true);
  set(Opcode::kOr, "or", FuClass::kAlu, OpCategory::kLogic, 2, true);
  set(Opcode::kOri, "ori", FuClass::kAlu, OpCategory::kLogic, 1, true);
  set(Opcode::kXor, "xor", FuClass::kAlu, OpCategory::kLogic, 2, true);
  set(Opcode::kXori, "xori", FuClass::kAlu, OpCategory::kLogic, 1, true);
  set(Opcode::kNor, "nor", FuClass::kAlu, OpCategory::kLogic, 2, true);
  set(Opcode::kSll, "sll", FuClass::kAlu, OpCategory::kShift, 1, true);
  set(Opcode::kSllv, "sllv", FuClass::kAlu, OpCategory::kShift, 2, true);
  set(Opcode::kSrl, "srl", FuClass::kAlu, OpCategory::kShift, 1, true);
  set(Opcode::kSrlv, "srlv", FuClass::kAlu, OpCategory::kShift, 2, true);
  set(Opcode::kSra, "sra", FuClass::kAlu, OpCategory::kShift, 1, true);
  set(Opcode::kSrav, "srav", FuClass::kAlu, OpCategory::kShift, 2, true);
  set(Opcode::kSlt, "slt", FuClass::kAlu, OpCategory::kCompare, 2, true);
  set(Opcode::kSlti, "slti", FuClass::kAlu, OpCategory::kCompare, 1, true);
  set(Opcode::kSltu, "sltu", FuClass::kAlu, OpCategory::kCompare, 2, true);
  set(Opcode::kSltiu, "sltiu", FuClass::kAlu, OpCategory::kCompare, 1, true);
  set(Opcode::kLui, "lui", FuClass::kAlu, OpCategory::kMove, 0, true);
  set(Opcode::kMov, "mov", FuClass::kAlu, OpCategory::kMove, 1, true);
  set(Opcode::kLw, "lw", FuClass::kMem, OpCategory::kLoad, 1, true);
  set(Opcode::kLh, "lh", FuClass::kMem, OpCategory::kLoad, 1, true);
  set(Opcode::kLhu, "lhu", FuClass::kMem, OpCategory::kLoad, 1, true);
  set(Opcode::kLb, "lb", FuClass::kMem, OpCategory::kLoad, 1, true);
  set(Opcode::kLbu, "lbu", FuClass::kMem, OpCategory::kLoad, 1, true);
  set(Opcode::kSw, "sw", FuClass::kMem, OpCategory::kStore, 2, false);
  set(Opcode::kSh, "sh", FuClass::kMem, OpCategory::kStore, 2, false);
  set(Opcode::kSb, "sb", FuClass::kMem, OpCategory::kStore, 2, false);
  set(Opcode::kBeq, "beq", FuClass::kBranch, OpCategory::kBranch, 2, false);
  set(Opcode::kBne, "bne", FuClass::kBranch, OpCategory::kBranch, 2, false);
  set(Opcode::kNop, "nop", FuClass::kAlu, OpCategory::kNop, 0, false);
  return t;
}

inline constexpr auto kTraitsTable = make_traits_table();

}  // namespace detail

/// Static traits lookup; total over all opcodes.
inline const OpcodeTraits& traits(Opcode op) {
  const auto idx = static_cast<std::size_t>(op);
  ISEX_ASSERT(idx < kOpcodeCount);
  return detail::kTraitsTable[idx];
}

inline std::string_view mnemonic(Opcode op) { return traits(op).mnemonic; }

inline bool is_load(Opcode op) { return traits(op).category == OpCategory::kLoad; }
inline bool is_store(Opcode op) { return traits(op).category == OpCategory::kStore; }
inline bool is_memory(Opcode op) { return is_load(op) || is_store(op); }
inline bool is_branch(Opcode op) { return traits(op).category == OpCategory::kBranch; }

/// True when the §4.2 formulation permits the opcode inside an ISE subgraph:
/// no loads, no stores, no branches (load-store architecture limitation).
inline bool ise_eligible(Opcode op) {
  return !is_memory(op) && !is_branch(op) && op != Opcode::kNop;
}

/// Parses a mnemonic ("addu", "xor", ...) back to its opcode.
std::optional<Opcode> opcode_from_mnemonic(std::string_view mnemonic);

}  // namespace isex::isa
