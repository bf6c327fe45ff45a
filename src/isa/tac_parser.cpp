#include "isa/tac_parser.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace isex::isa {
namespace {

// Character classes as ASCII tests.  Nothing in the program calls
// setlocale, so these are exactly what <cctype> answers in the "C" locale,
// without a library call per byte.
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool is_xdigit(char c) {
  return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_ident_char(char c) {
  return is_alpha(c) || is_digit(c) || c == '_';
}

/// Parses an integer literal the lexer accepted: an optional '-', then
/// decimal digits or 0x and at least one hex digit (a leading zero does not
/// make a literal octal).  Values that do not fit the 32-bit datapath are
/// rejected (the evaluator and RTL are 32-bit; silently truncating a 2^40
/// literal would corrupt results, not report them).
std::int64_t parse_immediate(std::string_view text, int line_no) {
  std::string_view digits = text;
  const bool negative = !digits.empty() && digits.front() == '-';
  if (negative) digits.remove_prefix(1);
  int base = 10;
  if (digits.size() >= 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
    base = 16;
  }
  std::uint64_t magnitude = 0;
  const char* const end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, magnitude, base);
  if (ec == std::errc::invalid_argument || ptr != end)
    throw ParseError(ErrorCode::kParseSyntax, line_no,
                     "malformed integer literal '" + std::string(text) +
                         "' (decimal or 0x hex)");
  if (ec == std::errc::result_out_of_range ||
      magnitude > (negative ? 2147483648ULL : 4294967295ULL))
    throw ParseError(ErrorCode::kParseImmediateRange, line_no,
                     "immediate '" + std::string(text) +
                         "' does not fit the 32-bit datapath");
  const auto value = static_cast<std::int64_t>(magnitude);
  return negative ? -value : value;
}

/// A token is a view into the caller's source: nothing is copied until a
/// name lands in the graph or a statement.
struct Token {
  enum class Kind { kIdent, kNumber, kEquals, kComma, kLBracket, kRBracket, kEnd };
  Kind kind = Kind::kEnd;
  std::string_view text;
};

class Lexer {
 public:
  Lexer(std::string_view line, int line_no) : line_(line), line_no_(line_no) {}

  Token next() {
    while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
    if (pos_ >= line_.size() || line_[pos_] == '#') return {};
    const std::size_t start = pos_;
    const char c = line_[pos_];
    if (c == '=') return punct(Token::Kind::kEquals);
    if (c == ',') return punct(Token::Kind::kComma);
    if (c == '[') return punct(Token::Kind::kLBracket);
    if (c == ']') return punct(Token::Kind::kRBracket);
    if (is_digit(c) ||
        (c == '-' && pos_ + 1 < line_.size() && is_digit(line_[pos_ + 1]))) {
      if (c == '-') ++pos_;
      // Decimal, or 0x... hex; parse_immediate checks the digits.
      if (pos_ + 1 < line_.size() && line_[pos_] == '0' &&
          (line_[pos_ + 1] == 'x' || line_[pos_ + 1] == 'X')) {
        pos_ += 2;
        while (pos_ < line_.size() && is_xdigit(line_[pos_])) ++pos_;
      } else {
        while (pos_ < line_.size() && is_digit(line_[pos_])) ++pos_;
      }
      return {Token::Kind::kNumber, line_.substr(start, pos_ - start)};
    }
    if (is_alpha(c) || c == '_') {
      while (pos_ < line_.size() && is_ident_char(line_[pos_])) ++pos_;
      return {Token::Kind::kIdent, line_.substr(start, pos_ - start)};
    }
    throw ParseError(line_no_, std::string("unexpected character '") + c + "'");
  }

 private:
  Token punct(Token::Kind kind) { return {kind, line_.substr(pos_++, 1)}; }

  std::string_view line_;
  std::size_t pos_ = 0;
  int line_no_;
};

/// One name the block mentions: the node that defines it (kInvalidNode until
/// its definition), its live-in value id (-1 unless it was read before any
/// definition), and whether an in-block statement reads its definition.
struct NameEntry {
  std::string_view name;  ///< empty marks a free slot (names are non-empty)
  dfg::NodeId def = dfg::kInvalidNode;
  int live_in = -1;
  bool consumed = false;
};

/// Flat open-addressing table (linear probing, power-of-two capacity, load
/// at most 1/2) of the block's names, keyed by views into the source.  One
/// entry serves both roles a name can have, so an operand resolves with a
/// single probe.
class NameTable {
 public:
  explicit NameTable(std::size_t expected)
      : slots_(std::bit_ceil(std::max<std::size_t>(16, 2 * expected))) {}

  NameEntry& find_or_insert(std::string_view name) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    NameEntry& slot = slots_[slot_of(name)];
    if (slot.name.empty()) {
      slot.name = name;
      ++size_;
    }
    return slot;
  }

  /// The entry for `name`, or nullptr.
  const NameEntry* find(std::string_view name) const {
    const NameEntry& slot = slots_[slot_of(name)];
    return slot.name.empty() ? nullptr : &slot;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const NameEntry& slot : slots_)
      if (!slot.name.empty()) fn(slot);
  }

 private:
  static std::uint64_t hash(std::string_view name) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  /// The slot holding `name`, or the free slot where it would go.
  std::size_t slot_of(std::string_view name) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(name) & mask;
    while (!slots_[i].name.empty() && slots_[i].name != name) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<NameEntry> old(slots_.size() * 2);
    old.swap(slots_);
    for (const NameEntry& entry : old)
      if (!entry.name.empty()) slots_[slot_of(entry.name)] = entry;
  }

  std::vector<NameEntry> slots_;
  std::size_t size_ = 0;
};

/// The outputs are reserved for one statement per source line, so a
/// typical block never regrows them.  The reservation is capped: a hostile
/// input of many short lines cannot make the parser reserve far more than
/// it reads before the first error, and past the cap the outputs grow
/// geometrically.
std::size_t reserved_statements(std::string_view source) {
  constexpr std::size_t kMaxReservedStatements = 4096;
  const auto lines =
      static_cast<std::size_t>(std::count(source.begin(), source.end(), '\n'));
  return std::min(lines + 1, kMaxReservedStatements);
}

/// One operand as the lexer saw it, before it is resolved and copied into
/// the statement.
struct OperandToken {
  TacOperand::Kind kind = TacOperand::Kind::kVar;
  std::string_view name;
  std::int64_t imm = 0;
};

class BlockParser {
 public:
  BlockParser(const ParseOptions& options, std::size_t expected_statements)
      : options_(options), names_(expected_statements) {
    block_.graph.reserve(expected_statements);
    block_.statements.reserve(expected_statements);
  }

  ParsedBlock parse(std::string_view source) {
    int line_no = 0;
    std::size_t start = 0;
    while (start <= source.size()) {
      const std::size_t nl = source.find('\n', start);
      const std::size_t end = (nl == std::string_view::npos) ? source.size() : nl;
      ++line_no;
      parse_line(source.substr(start, end - start), line_no);
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
    if (options_.reject_empty && block_.statements.empty())
      throw ParseError(ErrorCode::kParseEmptyInput, 0,
                       "input contains no statements");
    apply_implicit_live_out();
    return std::move(block_);
  }

 private:
  void parse_line(std::string_view line, int line_no) {
    Lexer lex(line, line_no);
    const Token first = lex.next();
    if (first.kind == Token::Kind::kEnd) return;
    if (first.kind != Token::Kind::kIdent)
      throw ParseError(line_no, "statement must start with an identifier");

    if (first.text == "live_out") {
      parse_live_out(lex, line_no);
      return;
    }

    // Disambiguate "dest = op ..." from "store_op [addr], val" by the next
    // token, so variables may shadow store mnemonics (a value named "sh"
    // stays a variable).
    const Token second = lex.next();
    if (second.kind != Token::Kind::kEquals) {
      if (auto op = opcode_from_mnemonic(first.text);
          op && is_store(*op) && second.kind == Token::Kind::kLBracket) {
        parse_store_after_bracket(*op, lex, line_no);
        return;
      }
      throw ParseError(line_no, "expected '=' after destination");
    }

    const Token mn = lex.next();
    if (mn.kind != Token::Kind::kIdent)
      throw ParseError(line_no, "expected mnemonic after '='");
    const auto op = opcode_from_mnemonic(mn.text);
    if (!op)
      throw ParseError(ErrorCode::kParseUnknownMnemonic, line_no,
                       "unknown mnemonic '" + std::string(mn.text) + "'");
    if (is_store(*op))
      throw ParseError(line_no, "store cannot have a destination");
    if (!traits(*op).has_dst)
      throw ParseError(line_no, "'" + std::string(mn.text) + "' produces no result");

    parse_operands(lex, line_no);
    define(first.text, *op, line_no);
  }

  void parse_live_out(Lexer& lex, int line_no) {
    for (;;) {
      const Token t = lex.next();
      if (t.kind != Token::Kind::kIdent)
        throw ParseError(line_no, "live_out expects variable names");
      explicit_live_out_.push_back({t.text, line_no});
      const Token sep = lex.next();
      if (sep.kind == Token::Kind::kEnd) return;
      if (sep.kind != Token::Kind::kComma)
        throw ParseError(line_no, "expected ',' in live_out list");
    }
  }

  /// Parses "... addr], value" — the leading "sw [" was already consumed.
  void parse_store_after_bracket(Opcode op, Lexer& lex, int line_no) {
    const Token inner = lex.next();
    if (inner.kind != Token::Kind::kIdent)
      throw ParseError(line_no, "memory operand must name a variable");
    expect(lex, Token::Kind::kRBracket, line_no, "expected ']'");
    expect(lex, Token::Kind::kComma, line_no, "store form is: sw [addr], value");
    const Token value = lex.next();
    operands_.clear();
    operands_.push_back({TacOperand::Kind::kMemAddr, inner.text, 0});
    if (value.kind == Token::Kind::kIdent) {
      operands_.push_back({TacOperand::Kind::kVar, value.text, 0});
    } else if (value.kind == Token::Kind::kNumber) {
      operands_.push_back({TacOperand::Kind::kImmediate, {},
                           parse_immediate(value.text, line_no)});
    } else {
      throw ParseError(line_no, "store form is: sw [addr], value");
    }
    if (lex.next().kind != Token::Kind::kEnd)
      throw ParseError(line_no, "unexpected text after store");
    make_node(op, {}, line_no);
  }

  /// Lexes the operand list into operands_.
  void parse_operands(Lexer& lex, int line_no) {
    operands_.clear();
    for (;;) {
      const Token t = lex.next();
      if (t.kind == Token::Kind::kEnd) {
        if (operands_.empty()) return;
        throw ParseError(line_no, "trailing comma");
      }
      if (t.kind == Token::Kind::kLBracket) {
        const Token inner = lex.next();
        if (inner.kind != Token::Kind::kIdent)
          throw ParseError(line_no, "memory operand must name a variable");
        expect(lex, Token::Kind::kRBracket, line_no, "expected ']'");
        operands_.push_back({TacOperand::Kind::kMemAddr, inner.text, 0});
      } else if (t.kind == Token::Kind::kIdent) {
        operands_.push_back({TacOperand::Kind::kVar, t.text, 0});
      } else if (t.kind == Token::Kind::kNumber) {
        operands_.push_back({TacOperand::Kind::kImmediate, {},
                             parse_immediate(t.text, line_no)});
      } else {
        throw ParseError(line_no, "bad operand");
      }
      const Token sep = lex.next();
      if (sep.kind == Token::Kind::kEnd) return;
      if (sep.kind != Token::Kind::kComma)
        throw ParseError(line_no, "expected ',' between operands");
    }
  }

  void define(std::string_view dest, Opcode op, int line_no) {
    if (const NameEntry* entry = names_.find(dest);
        entry != nullptr && entry->def != dfg::kInvalidNode)
      throw ParseError(ErrorCode::kParseRedefinition, line_no,
                       "variable '" + std::string(dest) +
                           "' redefined (block is SSA)");
    if (options_.reject_self_reference) {
      for (const OperandToken& o : operands_) {
        if (o.kind != TacOperand::Kind::kImmediate && o.name == dest)
          throw ParseError(
              ErrorCode::kParseSelfReference, line_no,
              "variable '" + std::string(dest) +
                  "' is read in its own definition (use before def "
                  "would form a dataflow cycle)");
      }
    }
    // The operands resolve before `dest` is defined, so a permissive
    // self-reference reads a live-in value.
    const dfg::NodeId id = make_node(op, dest, line_no);
    names_.find_or_insert(dest).def = id;
  }

  /// Checks the statement in operands_, then adds its node, edges and
  /// live-in ids to the graph and the statement itself, each built once.
  dfg::NodeId make_node(Opcode op, std::string_view label, int line_no) {
    if (is_load(op) && (operands_.size() != 1 ||
                        operands_[0].kind != TacOperand::Kind::kMemAddr))
      throw ParseError(line_no, "load form is: dst = lw [addr]");
    if (options_.reject_over_arity) {
      int reg_operands = 0;
      for (const OperandToken& o : operands_)
        if (o.kind != TacOperand::Kind::kImmediate) ++reg_operands;
      const auto max_srcs = static_cast<int>(traits(op).num_srcs);
      if (reg_operands > max_srcs)
        throw ParseError(ErrorCode::kParseArity, line_no,
                         "'" + std::string(mnemonic(op)) + "' reads at most " +
                             std::to_string(max_srcs) +
                             " register operand(s); got " +
                             std::to_string(reg_operands));
    }

    dfg::Graph& graph = block_.graph;
    const dfg::NodeId id = graph.add_node(op, std::string(label));
    extern_ids_.clear();
    for (const OperandToken& o : operands_) {
      if (o.kind == TacOperand::Kind::kImmediate) continue;  // encoded immediate
      NameEntry& entry = names_.find_or_insert(o.name);
      if (entry.def != dfg::kInvalidNode) {
        graph.add_edge(entry.def, id);
        entry.consumed = true;
      } else {
        // Live-in value: one id per variable, shared across all uses so
        // IN(S) counts the value once.
        if (entry.live_in < 0) entry.live_in = next_live_in_++;
        extern_ids_.push_back(entry.live_in);
      }
    }
    graph.set_extern_input_ids(
        id, std::vector<int>(extern_ids_.begin(), extern_ids_.end()));

    TacStatement& stmt = block_.statements.emplace_back();
    stmt.op = op;
    stmt.dest = label;
    stmt.operands.reserve(operands_.size());
    for (const OperandToken& o : operands_)
      stmt.operands.push_back({o.kind, std::string(o.name), o.imm});
    stmt.line = line_no;
    stmt.node = id;
    return id;
  }

  void apply_implicit_live_out() {
    for (const auto& [name, line_no] : explicit_live_out_) {
      const NameEntry* entry = names_.find(name);
      if (entry == nullptr || entry->def == dfg::kInvalidNode)
        throw ParseError(ErrorCode::kParseUndefinedVariable, line_no,
                         "live_out of undefined variable '" +
                             std::string(name) + "'");
      block_.graph.set_live_out(entry->def, true);
    }
    // A defined value nobody in the block consumes must escape the block.
    names_.for_each([&](const NameEntry& entry) {
      if (entry.def != dfg::kInvalidNode && !entry.consumed)
        block_.graph.set_live_out(entry.def, true);
    });
  }

  static void expect(Lexer& lex, Token::Kind kind, int line_no, const char* msg) {
    if (lex.next().kind != kind) throw ParseError(line_no, msg);
  }

  ParseOptions options_;
  ParsedBlock block_;
  NameTable names_;
  int next_live_in_ = 0;
  /// The current statement's operands, reused across lines.
  std::vector<OperandToken> operands_;
  /// The current node's live-in ids, reused across lines.
  std::vector<int> extern_ids_;
  std::vector<std::pair<std::string_view, int>> explicit_live_out_;
};

ParsedBlock parse_block(std::string_view source, const ParseOptions& options) {
  BlockParser parser(options, reserved_statements(source));
  return parser.parse(source);
}

}  // namespace

ParsedBlock parse_tac(std::string_view source) {
  // Permissive: empty blocks, self-references, and over-arity statements
  // keep parsing (programmatic kernels rely on the historical latitude);
  // only defects that corrupt the DFG or the 32-bit datapath throw.
  ParseOptions permissive;
  permissive.reject_empty = false;
  permissive.reject_self_reference = false;
  permissive.reject_over_arity = false;
  return parse_block(source, permissive);
}

Expected<ParsedBlock> parse_tac_checked(std::string_view source,
                                        const ParseOptions& options) {
  try {
    return parse_block(source, options);
  } catch (const ParseError& e) {
    return e.to_error();
  }
}

}  // namespace isex::isa
