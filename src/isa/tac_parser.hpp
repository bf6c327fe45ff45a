// Three-address-code (TAC) frontend.
//
// The paper extracts DFGs from PISA binaries compiled with gcc 2.7.2.3; this
// repository substitutes a small textual three-address form so that basic
// blocks can be written, versioned, and unit-tested directly.  One line is
// one operation; SSA-style: each variable is defined at most once per block.
//
// Grammar (one statement per line, '#' starts a comment):
//
//   dest = MNEMONIC src [, src ...]        e.g.  t1 = addu a, b
//   dest = LOAD [addr]                     e.g.  t2 = lw [p]
//   STORE [addr], value                    e.g.  sw [p], t2
//   live_out var [, var ...]               marks block outputs
//
// Operands are identifiers or integer literals.  A literal is decimal or 0x
// followed by at least one hex digit, with an optional leading '-'; a leading
// zero does not make it octal ("010" is ten), and it must fit the 32-bit
// datapath.  Literals are immediates (encoded in the instruction; they
// create no edge and no live-in value).
// An identifier with no in-block definition is a live-in value and counts
// toward the defining node's extern-input tally.  A defined variable with no
// in-block consumer is implicitly live-out.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/graph.hpp"
#include "util/error.hpp"

namespace isex::isa {

/// Parse failure; carries a structured error code (the 1xx block of
/// isex::ErrorCode) and the 1-based source line (0 = whole input).
class ParseError : public std::runtime_error {
 public:
  ParseError(ErrorCode code, int line, const std::string& message)
      : std::runtime_error(line > 0
                               ? "line " + std::to_string(line) + ": " + message
                               : message),
        code_(code),
        line_(line),
        raw_message_(message) {}
  /// Back-compat constructor; classifies as generic syntax error.
  ParseError(int line, const std::string& message)
      : ParseError(ErrorCode::kParseSyntax, line, message) {}

  ErrorCode code() const { return code_; }
  int line() const { return line_; }

  /// The structured-diagnostic form of this failure.
  Error to_error() const {
    return Error(code_, raw_message_, SourceLoc{line_, 0});
  }

 private:
  ErrorCode code_;
  int line_;
  std::string raw_message_;
};

/// One parsed operand, preserving what the DFG abstracts away (immediates,
/// operand order, memory addressing) so the block stays *executable* — the
/// exec::Evaluator runs on statements, not on the graph.
struct TacOperand {
  enum class Kind : std::uint8_t { kVar, kImmediate, kMemAddr };
  Kind kind = Kind::kVar;
  /// Variable name (kVar / kMemAddr).
  std::string name;
  /// Immediate value (kImmediate).
  std::int64_t imm = 0;
};

struct TacStatement {
  Opcode op = Opcode::kNop;
  /// Destination variable; empty for stores.
  std::string dest;
  std::vector<TacOperand> operands;
  /// 1-based source line.
  int line = 0;
  /// The DFG node this statement became.
  dfg::NodeId node = dfg::kInvalidNode;
};

struct ParsedBlock {
  dfg::Graph graph;
  /// Statements in program order (executable form).  A statement's `dest`
  /// and `node` map each defined variable to its node.
  std::vector<TacStatement> statements;
};

/// Strictness knobs for the checked entry point.  The throwing parse_tac()
/// wrapper stays permissive (empty blocks and self-references parse) so
/// that programmatic kernel construction keeps its historical latitude; the
/// tool boundary (isex_cli, fuzzers) parses strictly.
struct ParseOptions {
  /// Reject input with zero statements (kParseEmptyInput, line 0).
  bool reject_empty = true;
  /// Reject "a = addu a, b" where `a` has no earlier definition: the
  /// apparent self-dependence is the only cycle-shaped input the TAC
  /// grammar admits, and it is always a typo (kParseSelfReference).
  bool reject_self_reference = true;
  /// Reject statements with more register operands than the opcode reads
  /// (kParseArity).
  bool reject_over_arity = true;
};

/// Parses a whole basic block.  Throws ParseError on malformed input,
/// unknown mnemonics, or variable redefinition.  The parse reads `source`
/// in place; the returned block owns copies of every name it keeps.
ParsedBlock parse_tac(std::string_view source);

/// Non-throwing strict boundary: parses and returns either the block or the
/// first structured Error.  The returned block's graph always satisfies
/// dfg::validate() — the fuzz harnesses enforce that contract.
Expected<ParsedBlock> parse_tac_checked(std::string_view source,
                                        const ParseOptions& options = {});

}  // namespace isex::isa
