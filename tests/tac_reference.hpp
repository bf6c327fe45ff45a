// Reference TAC parser: the string-and-hash-map block parser, kept as the
// oracle the zero-copy isa::parse_tac / isa::parse_tac_checked are checked
// against (TacReference in test_tac_parser.cpp, and fuzz_tac_parser through
// fuzz::run_tac_parser_input).
//
// Every token is a std::string, definitions and live-in values live in
// std::unordered_maps keyed by owned names, consumed producers in an
// unordered_set and data edges in a std::set (a producer read twice by one
// statement is dropped here, not by Graph::add_edge), and each statement's
// operands are built in a growing vector and then copied into the
// statement.  The character classes are the <cctype> calls.  Integer literals follow the documented grammar (decimal,
// or 0x and at least one hex digit, through std::from_chars).  The checks
// and their order are the parser's: the reference must not share code with
// what it checks, so nothing here calls into tac_parser.cpp.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dfg/graph.hpp"
#include "isa/opcode.hpp"
#include "isa/tac_parser.hpp"
#include "util/error.hpp"

namespace isex::testing {

inline std::int64_t ref_parse_immediate(const std::string& text,
                                        int line_no) {
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
    throw isa::ParseError(ErrorCode::kParseSyntax, line_no,
                          "malformed integer literal '" + text +
                              "' (decimal or 0x hex)");
  if (ec == std::errc::result_out_of_range ||
      magnitude > (negative ? 2147483648ULL : 4294967295ULL))
    throw isa::ParseError(ErrorCode::kParseImmediateRange, line_no,
                          "immediate '" + text +
                              "' does not fit the 32-bit datapath");
  const auto value = static_cast<std::int64_t>(magnitude);
  return negative ? -value : value;
}

struct RefToken {
  enum class Kind { kIdent, kNumber, kEquals, kComma, kLBracket, kRBracket, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
};

class RefLexer {
 public:
  RefLexer(std::string_view line, int line_no)
      : line_(line), line_no_(line_no) {}

  RefToken next() {
    skip_space();
    if (pos_ >= line_.size() || line_[pos_] == '#')
      return {RefToken::Kind::kEnd, ""};
    const char c = line_[pos_];
    if (c == '=') { ++pos_; return {RefToken::Kind::kEquals, "="}; }
    if (c == ',') { ++pos_; return {RefToken::Kind::kComma, ","}; }
    if (c == '[') { ++pos_; return {RefToken::Kind::kLBracket, "["}; }
    if (c == ']') { ++pos_; return {RefToken::Kind::kRBracket, "]"}; }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '-' && pos_ + 1 < line_.size() &&
         std::isdigit(static_cast<unsigned char>(line_[pos_ + 1])) != 0)) {
      return lex_number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      return lex_ident();
    }
    throw isa::ParseError(line_no_,
                          std::string("unexpected character '") + c + "'");
  }

 private:
  void skip_space() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_])) != 0)
      ++pos_;
  }

  RefToken lex_number() {
    const std::size_t start = pos_;
    if (line_[pos_] == '-') ++pos_;
    if (pos_ + 1 < line_.size() && line_[pos_] == '0' &&
        (line_[pos_ + 1] == 'x' || line_[pos_ + 1] == 'X')) {
      pos_ += 2;
      while (pos_ < line_.size() &&
             std::isxdigit(static_cast<unsigned char>(line_[pos_])) != 0)
        ++pos_;
    } else {
      while (pos_ < line_.size() &&
             std::isdigit(static_cast<unsigned char>(line_[pos_])) != 0)
        ++pos_;
    }
    return {RefToken::Kind::kNumber,
            std::string(line_.substr(start, pos_ - start))};
  }

  RefToken lex_ident() {
    const std::size_t start = pos_;
    while (pos_ < line_.size() &&
           (std::isalnum(static_cast<unsigned char>(line_[pos_])) != 0 ||
            line_[pos_] == '_'))
      ++pos_;
    return {RefToken::Kind::kIdent,
            std::string(line_.substr(start, pos_ - start))};
  }

  std::string_view line_;
  std::size_t pos_ = 0;
  int line_no_;
};

class RefBlockParser {
 public:
  explicit RefBlockParser(const isa::ParseOptions& options)
      : options_(options) {}

  isa::ParsedBlock parse(std::string_view source) {
    int line_no = 0;
    std::size_t start = 0;
    while (start <= source.size()) {
      const std::size_t nl = source.find('\n', start);
      const std::size_t end =
          (nl == std::string_view::npos) ? source.size() : nl;
      ++line_no;
      parse_line(source.substr(start, end - start), line_no);
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
    if (options_.reject_empty && block_.statements.empty())
      throw isa::ParseError(ErrorCode::kParseEmptyInput, 0,
                            "input contains no statements");
    apply_implicit_live_out();
    return std::move(block_);
  }

 private:
  using Kind = RefToken::Kind;

  void parse_line(std::string_view line, int line_no) {
    RefLexer lex(line, line_no);
    RefToken first = lex.next();
    if (first.kind == Kind::kEnd) return;
    if (first.kind != Kind::kIdent)
      throw isa::ParseError(line_no, "statement must start with an identifier");

    if (first.text == "live_out") {
      parse_live_out(lex, line_no);
      return;
    }

    const RefToken second = lex.next();
    if (second.kind != Kind::kEquals) {
      if (auto op = isa::opcode_from_mnemonic(first.text);
          op && isa::is_store(*op) && second.kind == Kind::kLBracket) {
        parse_store_after_bracket(*op, lex, line_no);
        return;
      }
      throw isa::ParseError(line_no, "expected '=' after destination");
    }

    const std::string dest = first.text;
    const RefToken mn = lex.next();
    if (mn.kind != Kind::kIdent)
      throw isa::ParseError(line_no, "expected mnemonic after '='");
    const auto op = isa::opcode_from_mnemonic(mn.text);
    if (!op)
      throw isa::ParseError(ErrorCode::kParseUnknownMnemonic, line_no,
                            "unknown mnemonic '" + mn.text + "'");
    if (isa::is_store(*op))
      throw isa::ParseError(line_no, "store cannot have a destination");
    if (!isa::traits(*op).has_dst)
      throw isa::ParseError(line_no, "'" + mn.text + "' produces no result");

    std::vector<isa::TacOperand> operands = parse_operands(lex, line_no);
    define(dest, *op, operands, line_no);
  }

  void parse_live_out(RefLexer& lex, int line_no) {
    for (;;) {
      const RefToken t = lex.next();
      if (t.kind != Kind::kIdent)
        throw isa::ParseError(line_no, "live_out expects variable names");
      explicit_live_out_.push_back({t.text, line_no});
      const RefToken sep = lex.next();
      if (sep.kind == Kind::kEnd) return;
      if (sep.kind != Kind::kComma)
        throw isa::ParseError(line_no, "expected ',' in live_out list");
    }
  }

  void parse_store_after_bracket(isa::Opcode op, RefLexer& lex, int line_no) {
    const RefToken inner = lex.next();
    if (inner.kind != Kind::kIdent)
      throw isa::ParseError(line_no, "memory operand must name a variable");
    expect(lex, Kind::kRBracket, line_no, "expected ']'");
    expect(lex, Kind::kComma, line_no, "store form is: sw [addr], value");
    const RefToken value = lex.next();
    std::vector<isa::TacOperand> operands;
    isa::TacOperand addr;
    addr.kind = isa::TacOperand::Kind::kMemAddr;
    addr.name = inner.text;
    operands.push_back(std::move(addr));
    if (value.kind == Kind::kIdent) {
      isa::TacOperand v;
      v.name = value.text;
      operands.push_back(std::move(v));
    } else if (value.kind == Kind::kNumber) {
      isa::TacOperand v;
      v.kind = isa::TacOperand::Kind::kImmediate;
      v.imm = ref_parse_immediate(value.text, line_no);
      operands.push_back(std::move(v));
    } else {
      throw isa::ParseError(line_no, "store form is: sw [addr], value");
    }
    if (lex.next().kind != Kind::kEnd)
      throw isa::ParseError(line_no, "unexpected text after store");
    make_node(op, "", operands, line_no);
  }

  std::vector<isa::TacOperand> parse_operands(RefLexer& lex, int line_no) {
    std::vector<isa::TacOperand> ops;
    for (;;) {
      RefToken t = lex.next();
      if (t.kind == Kind::kEnd) {
        if (ops.empty()) return ops;
        throw isa::ParseError(line_no, "trailing comma");
      }
      if (t.kind == Kind::kLBracket) {
        const RefToken inner = lex.next();
        if (inner.kind != Kind::kIdent)
          throw isa::ParseError(line_no, "memory operand must name a variable");
        expect(lex, Kind::kRBracket, line_no, "expected ']'");
        isa::TacOperand o;
        o.kind = isa::TacOperand::Kind::kMemAddr;
        o.name = inner.text;
        ops.push_back(std::move(o));
      } else if (t.kind == Kind::kIdent) {
        isa::TacOperand o;
        o.name = t.text;
        ops.push_back(std::move(o));
      } else if (t.kind == Kind::kNumber) {
        isa::TacOperand o;
        o.kind = isa::TacOperand::Kind::kImmediate;
        o.imm = ref_parse_immediate(t.text, line_no);
        ops.push_back(std::move(o));
      } else {
        throw isa::ParseError(line_no, "bad operand");
      }
      const RefToken sep = lex.next();
      if (sep.kind == Kind::kEnd) return ops;
      if (sep.kind != Kind::kComma)
        throw isa::ParseError(line_no, "expected ',' between operands");
    }
  }

  void define(const std::string& dest, isa::Opcode op,
              const std::vector<isa::TacOperand>& operands, int line_no) {
    if (defs_.contains(dest))
      throw isa::ParseError(ErrorCode::kParseRedefinition, line_no,
                            "variable '" + dest + "' redefined (block is SSA)");
    if (options_.reject_self_reference) {
      for (const isa::TacOperand& o : operands) {
        if (o.kind != isa::TacOperand::Kind::kImmediate && o.name == dest)
          throw isa::ParseError(
              ErrorCode::kParseSelfReference, line_no,
              "variable '" + dest +
                  "' is read in its own definition (use before def "
                  "would form a dataflow cycle)");
      }
    }
    const dfg::NodeId id = make_node(op, dest, operands, line_no);
    defs_.emplace(dest, id);
  }

  dfg::NodeId make_node(isa::Opcode op, const std::string& label,
                        const std::vector<isa::TacOperand>& operands,
                        int line_no) {
    if (isa::is_load(op) &&
        (operands.size() != 1 ||
         operands[0].kind != isa::TacOperand::Kind::kMemAddr))
      throw isa::ParseError(line_no, "load form is: dst = lw [addr]");
    if (options_.reject_over_arity) {
      int reg_operands = 0;
      for (const isa::TacOperand& o : operands)
        if (o.kind != isa::TacOperand::Kind::kImmediate) ++reg_operands;
      const auto max_srcs = static_cast<int>(isa::traits(op).num_srcs);
      if (reg_operands > max_srcs)
        throw isa::ParseError(ErrorCode::kParseArity, line_no,
                              "'" + std::string(isa::mnemonic(op)) +
                                  "' reads at most " +
                                  std::to_string(max_srcs) +
                                  " register operand(s); got " +
                                  std::to_string(reg_operands));
    }

    const dfg::NodeId id = block_.graph.add_node(op, label);
    std::vector<int> extern_ids;
    for (const isa::TacOperand& o : operands) {
      if (o.kind == isa::TacOperand::Kind::kImmediate) continue;
      const auto it = defs_.find(o.name);
      if (it != defs_.end()) {
        // The reference drops a repeated producer itself rather than
        // relying on Graph::add_edge ignoring duplicates.
        if (edges_.insert({it->second, id}).second)
          block_.graph.add_edge(it->second, id);
        consumed_.insert(it->second);
      } else {
        const auto [live_it, unused] = live_in_ids_.try_emplace(
            o.name, static_cast<int>(live_in_ids_.size()));
        extern_ids.push_back(live_it->second);
      }
    }
    block_.graph.set_extern_input_ids(id, std::move(extern_ids));
    isa::TacStatement stmt;
    stmt.op = op;
    stmt.dest = label;
    stmt.operands = operands;
    stmt.line = line_no;
    stmt.node = id;
    block_.statements.push_back(std::move(stmt));
    return id;
  }

  void apply_implicit_live_out() {
    for (const auto& [name, line_no] : explicit_live_out_) {
      const auto it = defs_.find(name);
      if (it == defs_.end())
        throw isa::ParseError(ErrorCode::kParseUndefinedVariable, line_no,
                              "live_out of undefined variable '" + name + "'");
      block_.graph.set_live_out(it->second, true);
    }
    for (const auto& [name, id] : defs_) {
      if (!consumed_.contains(id)) block_.graph.set_live_out(id, true);
    }
  }

  static void expect(RefLexer& lex, Kind kind, int line_no, const char* msg) {
    if (lex.next().kind != kind) throw isa::ParseError(line_no, msg);
  }

  isa::ParseOptions options_;
  isa::ParsedBlock block_;
  std::unordered_map<std::string, dfg::NodeId> defs_;
  std::unordered_map<std::string, int> live_in_ids_;
  std::unordered_set<dfg::NodeId> consumed_;
  std::set<std::pair<dfg::NodeId, dfg::NodeId>> edges_;
  std::vector<std::pair<std::string, int>> explicit_live_out_;
};

/// The options isa::parse_tac (the permissive, throwing entry point) uses.
inline isa::ParseOptions ref_permissive_options() {
  isa::ParseOptions permissive;
  permissive.reject_empty = false;
  permissive.reject_self_reference = false;
  permissive.reject_over_arity = false;
  return permissive;
}

/// isa::parse_tac (the throwing, permissive entry point) as a value: the
/// block, or the ParseError it threw.
inline Expected<isa::ParsedBlock> parse_tac_caught(std::string_view source) {
  try {
    return isa::parse_tac(source);
  } catch (const isa::ParseError& e) {
    return e.to_error();
  }
}

/// The reference parse of `source`: the block, or the first error.
inline Expected<isa::ParsedBlock> reference_parse_tac(
    std::string_view source, const isa::ParseOptions& options = {}) {
  try {
    RefBlockParser parser(options);
    return parser.parse(source);
  } catch (const isa::ParseError& e) {
    return e.to_error();
  }
}

/// Empty when `got` and `want` agree on acceptance, on the error (code,
/// line, message) or, for an accepted block, on every node (opcode, label,
/// ISE flag, memory latency, pred and succ order, live-in ids, live-out)
/// and every statement (opcode, destination, operands, line, node);
/// otherwise the first difference.
inline std::string diff_parses(const Expected<isa::ParsedBlock>& got,
                               const Expected<isa::ParsedBlock>& want) {
  if (got.has_value() != want.has_value())
    return got.has_value() ? "accepted; the reference rejects: " +
                                 want.error().to_string()
                           : "rejected (" + got.error().to_string() +
                                 "); the reference accepts";
  if (!got.has_value()) {
    const Error& g = got.error();
    const Error& w = want.error();
    if (g.code() != w.code() || g.loc().line != w.loc().line ||
        g.message() != w.message())
      return "error '" + g.to_string() + "' != '" + w.to_string() + "'";
    return {};
  }
  const dfg::Graph& gg = got->graph;
  const dfg::Graph& wg = want->graph;
  if (gg.num_nodes() != wg.num_nodes())
    return "nodes " + std::to_string(gg.num_nodes()) +
           " != " + std::to_string(wg.num_nodes());
  if (gg.num_edges() != wg.num_edges())
    return "edges " + std::to_string(gg.num_edges()) +
           " != " + std::to_string(wg.num_edges());
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  for (dfg::NodeId v = 0; v < gg.num_nodes(); ++v) {
    const dfg::Node& gn = gg.node(v);
    const dfg::Node& wn = wg.node(v);
    const std::string at = "node " + std::to_string(v) + ": ";
    if (gn.opcode != wn.opcode) return at + "opcode";
    if (gn.label != wn.label)
      return at + "label '" + gn.label + "' != '" + wn.label + "'";
    if (gn.is_ise != wn.is_ise || gn.mem_latency != wn.mem_latency)
      return at + "ISE flag or memory latency";
    if (!same(gg.preds(v), wg.preds(v))) return at + "preds";
    if (!same(gg.succs(v), wg.succs(v))) return at + "succs";
    if (!same(gg.extern_input_ids(v), wg.extern_input_ids(v)))
      return at + "live-in ids";
    if (gg.live_out(v) != wg.live_out(v)) return at + "live-out";
  }
  const std::vector<isa::TacStatement>& gs = got->statements;
  const std::vector<isa::TacStatement>& ws = want->statements;
  if (gs.size() != ws.size())
    return "statements " + std::to_string(gs.size()) +
           " != " + std::to_string(ws.size());
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const isa::TacStatement& g = gs[i];
    const isa::TacStatement& w = ws[i];
    const std::string at = "statement " + std::to_string(i) + ": ";
    if (g.op != w.op || g.dest != w.dest || g.line != w.line ||
        g.node != w.node)
      return at + "opcode, destination, line or node";
    if (g.operands.size() != w.operands.size()) return at + "operand count";
    for (std::size_t k = 0; k < g.operands.size(); ++k) {
      const isa::TacOperand& go = g.operands[k];
      const isa::TacOperand& wo = w.operands[k];
      if (go.kind != wo.kind || go.name != wo.name || go.imm != wo.imm)
        return at + "operand " + std::to_string(k);
    }
  }
  return {};
}

}  // namespace isex::testing
