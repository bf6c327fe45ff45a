#include "dfg/analysis.hpp"
#include "isa/tac_parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_suite/extended.hpp"
#include "bench_suite/kernels.hpp"
#include "tac_reference.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace isex::isa {
namespace {

TEST(TacParser, SingleStatement) {
  const ParsedBlock b = parse_tac("x = addu a, b");
  EXPECT_EQ(b.graph.num_nodes(), 1u);
  EXPECT_EQ(b.graph.num_edges(), 0u);
  const dfg::NodeId x = testing::defined_node(b, "x");
  ASSERT_NE(x, dfg::kInvalidNode);
  EXPECT_EQ(b.graph.node(x).opcode, Opcode::kAddu);
  EXPECT_EQ(b.graph.extern_inputs(x), 2);  // a, b live-in
  EXPECT_TRUE(b.graph.live_out(x));        // nothing consumes x
}

TEST(TacParser, EdgesFollowDefUse) {
  const ParsedBlock b = parse_tac(R"(
    t0 = xor a, b
    t1 = srl t0, 4
    t2 = and t0, t1
  )");
  EXPECT_EQ(b.graph.num_nodes(), 3u);
  EXPECT_EQ(b.graph.num_edges(), 3u);
  const dfg::NodeId t0 = testing::defined_node(b, "t0");
  const dfg::NodeId t1 = testing::defined_node(b, "t1");
  const dfg::NodeId t2 = testing::defined_node(b, "t2");
  EXPECT_TRUE(b.graph.has_edge(t0, t1));
  EXPECT_TRUE(b.graph.has_edge(t0, t2));
  EXPECT_TRUE(b.graph.has_edge(t1, t2));
}

TEST(TacParser, ImmediatesAreNotOperandValues) {
  const ParsedBlock b = parse_tac("t = andi x, 255");
  const auto v = testing::defined_node(b, "t");
  EXPECT_EQ(b.graph.extern_inputs(v), 1);  // only x
}

TEST(TacParser, HexAndNegativeImmediates) {
  const ParsedBlock b = parse_tac(R"(
    a = andi x, 0xff
    c = addiu x, -4
  )");
  EXPECT_EQ(b.graph.num_nodes(), 2u);
}

TEST(TacParser, LoadForm) {
  const ParsedBlock b = parse_tac("v = lw [p]");
  const auto v = testing::defined_node(b, "v");
  EXPECT_EQ(b.graph.node(v).opcode, Opcode::kLw);
  EXPECT_EQ(b.graph.extern_inputs(v), 1);  // address p
}

TEST(TacParser, StoreForm) {
  const ParsedBlock b = parse_tac(R"(
    v = addu a, b
    sw [p], v
  )");
  EXPECT_EQ(b.graph.num_nodes(), 2u);
  EXPECT_EQ(b.graph.num_edges(), 1u);  // v feeds the store
  // v is consumed by the store, so not implicitly live-out.
  EXPECT_FALSE(b.graph.live_out(testing::defined_node(b, "v")));
}

TEST(TacParser, ExplicitLiveOut) {
  const ParsedBlock b = parse_tac(R"(
    t = addu a, b
    u = xor t, c
    live_out t
  )");
  EXPECT_TRUE(b.graph.live_out(testing::defined_node(b, "t")));  // explicit
  // implicit (unconsumed)
  EXPECT_TRUE(b.graph.live_out(testing::defined_node(b, "u")));
}

TEST(TacParser, CommentsAndBlankLines) {
  const ParsedBlock b = parse_tac(R"(
    # full-line comment

    t = addu a, b  # trailing comment
  )");
  EXPECT_EQ(b.graph.num_nodes(), 1u);
}

TEST(TacParser, SameOperandTwice) {
  const ParsedBlock b = parse_tac(R"(
    t = addu a, a
    u = xor t, t
  )");
  // t -> u is a single value/edge even though used twice.
  EXPECT_EQ(b.graph.num_edges(), 1u);
  EXPECT_EQ(b.graph.extern_inputs(testing::defined_node(b, "t")), 2);
}

TEST(TacParser, RedefinitionRejected) {
  EXPECT_THROW(parse_tac("x = addu a, b\nx = xor c, d"), ParseError);
}

TEST(TacParser, UnknownMnemonicRejected) {
  try {
    parse_tac("x = frobnicate a, b");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
  }
}

TEST(TacParser, StoreWithDestinationRejected) {
  EXPECT_THROW(parse_tac("x = sw [p], v"), ParseError);
}

TEST(TacParser, MalformedLoadRejected) {
  EXPECT_THROW(parse_tac("v = lw p"), ParseError);
  EXPECT_THROW(parse_tac("v = lw [p], q"), ParseError);
}

TEST(TacParser, MalformedStoreRejected) {
  EXPECT_THROW(parse_tac("sw p, v"), ParseError);
}

TEST(TacParser, LiveOutOfUndefinedVariableRejected) {
  EXPECT_THROW(parse_tac("live_out ghost"), ParseError);
}

TEST(TacParser, MissingEqualsRejected) {
  EXPECT_THROW(parse_tac("x addu a, b"), ParseError);
}

TEST(TacParser, TrailingCommaRejected) {
  EXPECT_THROW(parse_tac("x = addu a,"), ParseError);
}

TEST(TacParser, ParseErrorCarriesLineNumber) {
  try {
    parse_tac("a = addu x, y\nb = bogus a, a\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(TacParser, EmptySourceYieldsEmptyGraph) {
  const ParsedBlock b = parse_tac("");
  EXPECT_EQ(b.graph.num_nodes(), 0u);
}

TEST(TacParser, ResultIsAlwaysAcyclic) {
  const ParsedBlock b = parse_tac(R"(
    a = addu x, y
    b = xor a, z
    c = and a, b
    d = or b, c
  )");
  EXPECT_TRUE(b.graph.is_acyclic());
}

}  // namespace
}  // namespace isex::isa
// -- appended coverage for parser disambiguation ---------------------------
namespace isex::isa {
namespace {

TEST(TacParser, VariableMayShadowStoreMnemonic) {
  const ParsedBlock b = parse_tac(R"(
    sh = sll a, 1
    sb = andi sh, 255
  )");
  EXPECT_EQ(b.graph.num_nodes(), 2u);
  EXPECT_EQ(b.graph.node(testing::defined_node(b, "sh")).opcode, Opcode::kSll);
}

TEST(TacParser, StoreWithImmediateValue) {
  const ParsedBlock b = parse_tac("sw [p], 42");
  ASSERT_EQ(b.statements.size(), 1u);
  EXPECT_EQ(b.statements[0].operands[1].kind, TacOperand::Kind::kImmediate);
  EXPECT_EQ(b.statements[0].operands[1].imm, 42);
}

TEST(TacParser, StoreTrailingGarbageRejected) {
  EXPECT_THROW(parse_tac("sw [p], v, w"), ParseError);
}

TEST(TacParser, HalfAndByteStores) {
  const ParsedBlock b = parse_tac(R"(
    sh [p], v
    sb [q], w
  )");
  EXPECT_EQ(b.graph.num_nodes(), 2u);
  EXPECT_EQ(b.statements[0].op, Opcode::kSh);
  EXPECT_EQ(b.statements[1].op, Opcode::kSb);
}

}  // namespace
}  // namespace isex::isa
// -- appended: live-in identity ---------------------------------------------
namespace isex::isa {
namespace {

TEST(TacParser, SharedLiveInVariableIsOneValue) {
  const ParsedBlock b = parse_tac(R"(
    t0 = srl x, 7
    t1 = sll x, 25
    r = or t0, t1
  )");
  // x is one live-in value even though two nodes read it.
  EXPECT_EQ(dfg::count_inputs(b.graph, b.graph.all_nodes()), 1);
}

TEST(TacParser, DistinctLiveInsCountSeparately) {
  const ParsedBlock b = parse_tac("t = addu a, b");
  EXPECT_EQ(dfg::count_inputs(b.graph, b.graph.all_nodes()), 2);
}

}  // namespace
}  // namespace isex::isa
// -- appended: structured negative-path coverage (error codes + lines) ------
namespace isex::isa {
namespace {

/// Asserts parse_tac_checked rejects `source` with exactly `code` at `line`.
void expect_rejected(std::string_view source, ErrorCode code, int line) {
  const Expected<ParsedBlock> result = parse_tac_checked(source);
  ASSERT_FALSE(result.has_value()) << "input was accepted: " << source;
  EXPECT_EQ(result.error().code(), code) << result.error().to_string();
  EXPECT_EQ(result.error().loc().line, line) << result.error().to_string();
  EXPECT_FALSE(result.error().message().empty());
}

TEST(TacParserNegative, SelfReferenceIsACycle) {
  // `a` reads itself with no earlier definition — the only cycle-shaped
  // input the TAC grammar admits.
  expect_rejected("a = addu a, b", ErrorCode::kParseSelfReference, 1);
  expect_rejected("t = addu x, y\nu = xor u, t\n",
                  ErrorCode::kParseSelfReference, 2);
}

TEST(TacParserNegative, UndefinedOperandInLiveOut) {
  expect_rejected("t = addu a, b\nlive_out ghost",
                  ErrorCode::kParseUndefinedVariable, 2);
}

TEST(TacParserNegative, DuplicateDefinition) {
  expect_rejected("x = addu a, b\nx = xor c, d",
                  ErrorCode::kParseRedefinition, 2);
}

TEST(TacParserNegative, OversizedImmediate) {
  expect_rejected("x = addiu a, 99999999999999999999",
                  ErrorCode::kParseImmediateRange, 1);
  expect_rejected("x = addiu a, 4294967296",
                  ErrorCode::kParseImmediateRange, 1);
  expect_rejected("x = addiu a, -2147483649",
                  ErrorCode::kParseImmediateRange, 1);
  expect_rejected("a = andi x, 0xff\nsw [p], 0x1ffffffff",
                  ErrorCode::kParseImmediateRange, 2);
}

TEST(TacParserNegative, BoundaryImmediatesStillParse) {
  EXPECT_TRUE(parse_tac_checked("x = addiu a, 4294967295").has_value());
  EXPECT_TRUE(parse_tac_checked("x = addiu a, -2147483648").has_value());
}

TEST(TacParserNegative, EmptyFile) {
  expect_rejected("", ErrorCode::kParseEmptyInput, 0);
  expect_rejected("# only a comment\n\n", ErrorCode::kParseEmptyInput, 0);
}

TEST(TacParserNegative, OverArity) {
  expect_rejected("x = addu a, b, c", ErrorCode::kParseArity, 1);
  expect_rejected("x = mov a, b", ErrorCode::kParseArity, 1);
}

TEST(TacParserNegative, UnknownMnemonicCode) {
  expect_rejected("x = frobnicate a, b", ErrorCode::kParseUnknownMnemonic, 1);
}

TEST(TacParserNegative, SyntaxErrorsCarryGenericCode) {
  expect_rejected("x addu a, b", ErrorCode::kParseSyntax, 1);
  expect_rejected("x = addu a,", ErrorCode::kParseSyntax, 1);
  expect_rejected("v = lw [p", ErrorCode::kParseSyntax, 1);
}

TEST(TacParserNegative, ThrowingWrapperCarriesTheSameCode) {
  try {
    parse_tac("x = addiu a, 99999999999999999999");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseImmediateRange);
    EXPECT_EQ(e.line(), 1);
  }
}

TEST(TacParserNegative, PermissiveWrapperKeepsHistoricalLatitude) {
  // Programmatic kernels rely on these parsing: empty blocks,
  // self-references (the name becomes a live-in), and over-arity.
  EXPECT_EQ(parse_tac("").graph.num_nodes(), 0u);
  EXPECT_EQ(parse_tac("a = addu a, b").graph.num_nodes(), 1u);
  EXPECT_EQ(parse_tac("x = addu a, b, c").graph.num_nodes(), 1u);
}

}  // namespace
}  // namespace isex::isa
// -- appended: the literal grammar (decimal or 0x hex, never octal) ---------
namespace isex::isa {
namespace {

TEST(TacParser, LeadingZeroLiteralsAreDecimal) {
  const ParsedBlock b = parse_tac(R"(
    a = addiu x, 08
    b = addiu x, 0009
    c = addiu x, 010
    d = addiu x, 017
    e = addiu x, -010
    f = addiu x, 0x010
    sw [p], 0100
  )");
  const std::int64_t want[] = {8, 9, 10, 17, -10, 16, 100};
  ASSERT_EQ(b.statements.size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    const TacOperand& literal = b.statements[i].operands[1];
    EXPECT_EQ(literal.kind, TacOperand::Kind::kImmediate) << "line " << i + 2;
    EXPECT_EQ(literal.imm, want[i]) << "line " << i + 2;
  }
}

TEST(TacParserNegative, HexPrefixWithoutDigitsIsRejected) {
  expect_rejected("x = addiu a, 0x", ErrorCode::kParseSyntax, 1);
  expect_rejected("x = addiu a, -0X", ErrorCode::kParseSyntax, 1);
  expect_rejected("t = addu a, b\nsw [p], 0x", ErrorCode::kParseSyntax, 2);
  // A malformed literal is reported before the statement's other faults.
  expect_rejected("x = addu a, b\nx = addiu a, 0x", ErrorCode::kParseSyntax, 2);
  EXPECT_THROW(parse_tac("x = addiu a, 0x"), ParseError);
  // Out-of-range hex keeps its own code.
  expect_rejected("x = addiu a, 0x100000000", ErrorCode::kParseImmediateRange,
                  1);
}

}  // namespace
}  // namespace isex::isa
// -- appended: agreement with the reference parser --------------------------
namespace isex::isa {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> files_under(const fs::path& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    texts.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  return texts;
}

/// A random block over every opcode, with live-in names that shadow
/// mnemonics, shared live-ins, literals in every form (leading zeros, hex,
/// the datapath's bounds), comments, blank lines and odd whitespace.  Half
/// the blocks are well-formed; the other half also draw redefinitions,
/// self-references, live-ins defined later, over-arity, branch and nop
/// statements, memory operands outside loads, out-of-range literals and
/// live_out of undefined names.
std::string random_block_text(Rng& rng) {
  static constexpr const char* kLiveIns[] = {"a",  "b",  "x",  "p",    "sh",
                                             "sw", "lw", "_q", "base9"};
  static constexpr const char* kSpaces[] = {" ", "  ", "\t", " \t", "\r "};
  const auto coin = [&](std::uint32_t one_in) {
    return rng.next_below(one_in) == 0;
  };
  const bool hostile = coin(2);
  const auto hazard = [&](std::uint32_t one_in) {
    return hostile && coin(one_in);
  };
  std::vector<std::string> defined;
  const auto space = [&] { return std::string(kSpaces[rng.next_below(5)]); };
  const auto live_in = [&] {
    return std::string(kLiveIns[rng.next_below(std::size(kLiveIns))]);
  };
  const auto name = [&]() -> std::string {
    if (!defined.empty() && !coin(3))
      return defined[rng.next_below(static_cast<std::uint32_t>(defined.size()))];
    return live_in();
  };
  const auto literal = [&]() -> std::string {
    if (hazard(4))
      return std::to_string(rng.next_u32()) + std::to_string(rng.next_below(10));
    switch (rng.next_below(6)) {
      case 0: return std::to_string(rng.next_below(1000));
      case 1: return "-" + std::to_string(rng.next_below(2147483649u));
      case 2: {
        char buf[16];
        std::snprintf(buf, sizeof buf, coin(2) ? "0x%x" : "0X%X",
                      rng.next_u32());
        return buf;
      }
      case 3: return "0" + std::to_string(rng.next_below(100));
      case 4: return coin(2) ? "4294967295" : "-2147483648";
      default: return "0";
    }
  };

  std::string text;
  const std::uint32_t statements = 1 + rng.next_below(24);
  for (std::uint32_t i = 0; i < statements; ++i) {
    if (coin(6)) text += coin(2) ? "\n" : space() + "# note, x = y\n";
    Opcode op = static_cast<Opcode>(rng.next_below(kOpcodeCount));
    while (!hazard(3) && !is_store(op) && !traits(op).has_dst)
      op = static_cast<Opcode>(rng.next_below(kOpcodeCount));
    const std::string mn(mnemonic(op));
    if (is_store(op)) {
      text += mn + space() + "[" + name() + "]," + space() +
              (coin(3) ? literal() : name());
    } else {
      std::string dest = coin(3) ? "v" + std::to_string(i)
                                 : "t" + std::to_string(i);
      if (hazard(6)) dest = name();  // redefinition or late definition
      text += dest + space() + "=" + space() + mn + " ";
      if (is_load(op) && !hazard(4)) {
        text += "[" + name() + "]";
      } else {
        std::uint32_t registers = traits(op).num_srcs;
        if (hazard(4)) registers = rng.next_below(5);
        const bool immediate = coin(3);
        for (std::uint32_t k = 0; k < registers + (immediate ? 1 : 0); ++k) {
          if (k > 0) text += "," + space();
          if (k == registers) {
            text += literal();
          } else if (hazard(12)) {
            text += dest;  // self-reference
          } else {
            text += hazard(8) ? "[" + name() + "]" : name();
          }
        }
      }
      defined.push_back(dest);
    }
    if (coin(8)) text += space() + "# trailing";
    text += coin(10) ? "\r\n" : "\n";
  }
  if (!defined.empty() && coin(2)) {
    const auto out = [&] {
      return hazard(4) ? live_in()
                       : defined[rng.next_below(
                             static_cast<std::uint32_t>(defined.size()))];
    };
    text += "live_out " + out();
    for (std::uint32_t k = rng.next_below(3); k > 0; --k) text += ", " + out();
    text += "\n";
  }
  return text;
}

/// `text` with one to four byte-level edits: a byte replaced, deleted or
/// inserted (from the grammar's punctuation and a few hostile bytes), or a
/// line duplicated.
std::string mutate(std::string text, Rng& rng) {
  static constexpr char kBytes[] = " \t\r\n#=,[]-_0x19azAZ;\x80\xff";
  const std::uint32_t edits = 1 + rng.next_below(4);
  for (std::uint32_t e = 0; e < edits; ++e) {
    const auto at = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint32_t>(text.size() + 1)));
    const char byte = rng.next_below(40) == 0
                          ? '\0'
                          : kBytes[rng.next_below(sizeof kBytes - 1)];
    switch (rng.next_below(4)) {
      case 0:
        if (at < text.size()) text[at] = byte;
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      case 2: text.insert(at, 1, byte); break;
      default: {
        const std::size_t begin = text.rfind('\n', at == 0 ? 0 : at - 1);
        const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = text.find('\n', from);
        const std::string line =
            text.substr(from, end == std::string::npos ? end : end - from + 1);
        text.insert(from, line);
      }
    }
  }
  return text;
}

/// Parses `source` under every combination of the strictness options and
/// through the throwing wrapper, and returns the first disagreement with the
/// reference parser ("" when they agree); counts accepted parses.
std::string disagreement(std::string_view source, int& accepted) {
  for (int mask = 0; mask < 8; ++mask) {
    ParseOptions options;
    options.reject_empty = (mask & 1) != 0;
    options.reject_self_reference = (mask & 2) != 0;
    options.reject_over_arity = (mask & 4) != 0;
    const Expected<ParsedBlock> got = parse_tac_checked(source, options);
    accepted += got.has_value() ? 1 : 0;
    const std::string diff = testing::diff_parses(
        got, testing::reference_parse_tac(source, options));
    if (!diff.empty()) return "options " + std::to_string(mask) + ": " + diff;
  }
  const std::string diff = testing::diff_parses(
      testing::parse_tac_caught(source),
      testing::reference_parse_tac(source, testing::ref_permissive_options()));
  return diff.empty() ? diff : "parse_tac: " + diff;
}

TEST(TacReference, MatchesReferenceOnSuiteCorpusAndRandomText) {
  std::vector<std::string> sources;
  for (const auto bm : bench_suite::all_benchmarks())
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3})
      for (const auto& def : bench_suite::kernel_blocks(bm, level))
        sources.emplace_back(def.tac);
  for (const auto bm : bench_suite::all_extra_benchmarks())
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3})
      for (const auto& def : bench_suite::extra_kernel_blocks(bm, level))
        sources.emplace_back(def.tac);
  const std::size_t kernels = sources.size();
  const fs::path root(ISEX_SOURCE_DIR);
  for (const fs::path& dir : {root / "fuzz" / "corpus" / "tac",
                              root / "fuzz" / "regressions",
                              root / "examples" / "kernels"})
    for (std::string& text : files_under(dir)) sources.push_back(std::move(text));
  EXPECT_GE(kernels, 64u);
  EXPECT_GE(sources.size() - kernels, 25u);

  int accepted = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string diff = disagreement(sources[i], accepted);
    ASSERT_TRUE(diff.empty()) << "source " << i << ": " << diff;
  }
  // Every kernel parses under all eight option sets.
  EXPECT_GE(accepted, static_cast<int>(8 * kernels));

  Rng rng(2317);
  int random_accepted = 0;
  int random_rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string valid = random_block_text(rng);
    const std::string text = i % 3 == 0 ? valid : mutate(valid, rng);
    int accepted_here = 0;
    const std::string diff = disagreement(text, accepted_here);
    ASSERT_TRUE(diff.empty()) << "random text " << i << ": " << diff
                              << "\n--- text ---\n" << text;
    random_accepted += accepted_here;
    random_rejected += 8 - accepted_here;
  }
  // Both outcomes are well represented.
  EXPECT_GT(random_accepted, 2000);
  EXPECT_GT(random_rejected, 2000);
}

}  // namespace
}  // namespace isex::isa
