#include "isa/opcode.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace isex::isa {
namespace {

TEST(Opcode, MnemonicsAreUniqueAndNonEmpty) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kOpcodeCount; ++i) {
    const auto op = static_cast<Opcode>(i);
    const std::string mn(mnemonic(op));
    EXPECT_FALSE(mn.empty());
    EXPECT_TRUE(seen.insert(mn).second) << "duplicate mnemonic " << mn;
  }
}

TEST(Opcode, RoundTripThroughMnemonic) {
  for (std::size_t i = 0; i < kOpcodeCount; ++i) {
    const auto op = static_cast<Opcode>(i);
    const auto parsed = opcode_from_mnemonic(mnemonic(op));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, op);
  }
}

TEST(Opcode, UnknownMnemonicRejected) {
  EXPECT_FALSE(opcode_from_mnemonic("bogus").has_value());
  EXPECT_FALSE(opcode_from_mnemonic("").has_value());
  EXPECT_FALSE(opcode_from_mnemonic("ADD").has_value());  // case-sensitive
}

/// The table scan opcode_from_mnemonic replaced: the reference it must
/// agree with on every input.
std::optional<Opcode> scan_for_mnemonic(std::string_view text) {
  for (std::size_t i = 0; i < kOpcodeCount; ++i)
    if (mnemonic(static_cast<Opcode>(i)) == text) return static_cast<Opcode>(i);
  return std::nullopt;
}

TEST(Opcode, NearMissesOfEveryMnemonicMatchTheTableScan) {
  // Proper prefixes and one-byte extensions are often mnemonics themselves
  // ("add" / "addi"), so each must find exactly what a scan of the table
  // finds; upper-cased forms never match.
  std::size_t misses = 0;
  for (std::size_t i = 0; i < kOpcodeCount; ++i) {
    const std::string mn(mnemonic(static_cast<Opcode>(i)));
    std::vector<std::string> near;
    for (std::size_t len = 0; len < mn.size(); ++len)
      near.push_back(mn.substr(0, len));
    for (int c = 0; c < 256; ++c) {
      const char ch = static_cast<char>(c);
      near.push_back(mn + ch);
      near.push_back(ch + mn);
    }
    for (const std::string& text : near) {
      EXPECT_EQ(opcode_from_mnemonic(text), scan_for_mnemonic(text))
          << "\"" << text << "\"";
      if (!scan_for_mnemonic(text)) ++misses;
    }
    std::string upper = mn;
    for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
    EXPECT_FALSE(opcode_from_mnemonic(upper).has_value()) << upper;
  }
  EXPECT_GT(misses, 0u);
  EXPECT_FALSE(opcode_from_mnemonic("addiuu").has_value());
  EXPECT_FALSE(opcode_from_mnemonic("addiu_long").has_value());
  EXPECT_FALSE(opcode_from_mnemonic(std::string_view("add\0", 4)).has_value());
}

TEST(Opcode, MemoryClassification) {
  EXPECT_TRUE(is_load(Opcode::kLw));
  EXPECT_TRUE(is_load(Opcode::kLbu));
  EXPECT_TRUE(is_store(Opcode::kSw));
  EXPECT_TRUE(is_store(Opcode::kSb));
  EXPECT_TRUE(is_memory(Opcode::kLh));
  EXPECT_FALSE(is_memory(Opcode::kAddu));
  EXPECT_FALSE(is_load(Opcode::kSw));
  EXPECT_FALSE(is_store(Opcode::kLw));
}

TEST(Opcode, BranchClassification) {
  EXPECT_TRUE(is_branch(Opcode::kBeq));
  EXPECT_TRUE(is_branch(Opcode::kBne));
  EXPECT_FALSE(is_branch(Opcode::kSlt));
}

TEST(Opcode, IseEligibility) {
  // §4.2 constraint 4: loads/stores out; branches and nop too.
  EXPECT_FALSE(ise_eligible(Opcode::kLw));
  EXPECT_FALSE(ise_eligible(Opcode::kSw));
  EXPECT_FALSE(ise_eligible(Opcode::kBeq));
  EXPECT_FALSE(ise_eligible(Opcode::kNop));
  EXPECT_TRUE(ise_eligible(Opcode::kAddu));
  EXPECT_TRUE(ise_eligible(Opcode::kXor));
  EXPECT_TRUE(ise_eligible(Opcode::kSrl));
  EXPECT_TRUE(ise_eligible(Opcode::kMult));
  EXPECT_TRUE(ise_eligible(Opcode::kMov));
}

TEST(Opcode, FuClasses) {
  EXPECT_EQ(traits(Opcode::kAddu).fu, FuClass::kAlu);
  EXPECT_EQ(traits(Opcode::kMult).fu, FuClass::kMult);
  EXPECT_EQ(traits(Opcode::kDivu).fu, FuClass::kDiv);
  EXPECT_EQ(traits(Opcode::kLw).fu, FuClass::kMem);
  EXPECT_EQ(traits(Opcode::kBne).fu, FuClass::kBranch);
}

TEST(Opcode, OperandCounts) {
  EXPECT_EQ(traits(Opcode::kAddu).num_srcs, 2);
  EXPECT_EQ(traits(Opcode::kAddi).num_srcs, 1);   // immediate form
  EXPECT_EQ(traits(Opcode::kSll).num_srcs, 1);    // shift-by-immediate
  EXPECT_EQ(traits(Opcode::kSllv).num_srcs, 2);   // shift-by-register
  EXPECT_EQ(traits(Opcode::kLui).num_srcs, 0);
}

TEST(Opcode, DestinationPresence) {
  EXPECT_TRUE(traits(Opcode::kAddu).has_dst);
  EXPECT_FALSE(traits(Opcode::kSw).has_dst);
  EXPECT_FALSE(traits(Opcode::kBeq).has_dst);
  EXPECT_FALSE(traits(Opcode::kNop).has_dst);
}

TEST(Opcode, Table511FamiliesAreEligible) {
  // Every opcode priced in Table 5.1.1 must be ISE-eligible.
  for (const Opcode op :
       {Opcode::kAdd, Opcode::kAddi, Opcode::kAddu, Opcode::kAddiu,
        Opcode::kSub, Opcode::kSubu, Opcode::kMult, Opcode::kMultu,
        Opcode::kAnd, Opcode::kAndi, Opcode::kOr, Opcode::kOri, Opcode::kXor,
        Opcode::kXori, Opcode::kNor, Opcode::kSll, Opcode::kSllv, Opcode::kSrl,
        Opcode::kSrlv, Opcode::kSra, Opcode::kSrav, Opcode::kSlt, Opcode::kSlti,
        Opcode::kSltu, Opcode::kSltiu}) {
    EXPECT_TRUE(ise_eligible(op)) << mnemonic(op);
  }
}

}  // namespace
}  // namespace isex::isa
