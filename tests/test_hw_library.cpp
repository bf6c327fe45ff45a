#include "hwlib/hw_library.hpp"

#include <gtest/gtest.h>

namespace isex::hw {
namespace {

// Table 5.1.1 spot checks: exact delay/area transcriptions.
TEST(HwLibrary, Table511AddFamily) {
  const HwLibrary lib = HwLibrary::paper_default();
  for (const auto op : {isa::Opcode::kAdd, isa::Opcode::kAddi,
                        isa::Opcode::kAddu, isa::Opcode::kAddiu}) {
    const auto opts = lib.hardware_options(op);
    ASSERT_EQ(opts.size(), 2u);
    EXPECT_DOUBLE_EQ(opts[0].delay, 4.04);
    EXPECT_DOUBLE_EQ(opts[0].area, 926.33);
    EXPECT_DOUBLE_EQ(opts[1].delay, 2.12);
    EXPECT_DOUBLE_EQ(opts[1].area, 2075.35);
  }
}

TEST(HwLibrary, Table511SubFamily) {
  const HwLibrary lib = HwLibrary::paper_default();
  const auto opts = lib.hardware_options(isa::Opcode::kSubu);
  ASSERT_EQ(opts.size(), 2u);
  EXPECT_DOUBLE_EQ(opts[1].delay, 2.14);
  EXPECT_DOUBLE_EQ(opts[1].area, 2049.41);
}

TEST(HwLibrary, Table511Multipliers) {
  const HwLibrary lib = HwLibrary::paper_default();
  const auto m = lib.hardware_options(isa::Opcode::kMult);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m[0].delay, 5.77);
  EXPECT_DOUBLE_EQ(m[0].area, 84428.0);
  const auto mu = lib.hardware_options(isa::Opcode::kMultu);
  ASSERT_EQ(mu.size(), 1u);
  EXPECT_DOUBLE_EQ(mu[0].delay, 5.65);
  EXPECT_DOUBLE_EQ(mu[0].area, 79778.1);
}

TEST(HwLibrary, Table511Logic) {
  const HwLibrary lib = HwLibrary::paper_default();
  EXPECT_DOUBLE_EQ(lib.hardware_options(isa::Opcode::kAnd)[0].delay, 1.58);
  EXPECT_DOUBLE_EQ(lib.hardware_options(isa::Opcode::kAnd)[0].area, 214.31);
  EXPECT_DOUBLE_EQ(lib.hardware_options(isa::Opcode::kOr)[0].area, 214.21);
  EXPECT_DOUBLE_EQ(lib.hardware_options(isa::Opcode::kXor)[0].delay, 4.17);
  EXPECT_DOUBLE_EQ(lib.hardware_options(isa::Opcode::kXori)[0].delay, 2.01);
  EXPECT_DOUBLE_EQ(lib.hardware_options(isa::Opcode::kXori)[0].area, 565.14);
  EXPECT_DOUBLE_EQ(lib.hardware_options(isa::Opcode::kNor)[0].delay, 2.00);
}

TEST(HwLibrary, Table511ComparesAndShifts) {
  const HwLibrary lib = HwLibrary::paper_default();
  const auto slt = lib.hardware_options(isa::Opcode::kSltiu);
  ASSERT_EQ(slt.size(), 2u);
  EXPECT_DOUBLE_EQ(slt[0].delay, 2.64);
  EXPECT_DOUBLE_EQ(slt[1].delay, 1.01);
  EXPECT_DOUBLE_EQ(slt[1].area, 2636.0);
  for (const auto op : {isa::Opcode::kSll, isa::Opcode::kSrlv, isa::Opcode::kSrav}) {
    const auto sh = lib.hardware_options(op);
    ASSERT_EQ(sh.size(), 1u);
    EXPECT_DOUBLE_EQ(sh[0].delay, 3.00);
    EXPECT_DOUBLE_EQ(sh[0].area, 400.00);
  }
}

TEST(HwLibrary, MemoryAndBranchHaveNoHardware) {
  const HwLibrary lib = HwLibrary::paper_default();
  EXPECT_FALSE(lib.has_hardware(isa::Opcode::kLw));
  EXPECT_FALSE(lib.has_hardware(isa::Opcode::kSw));
  EXPECT_FALSE(lib.has_hardware(isa::Opcode::kBeq));
  EXPECT_FALSE(lib.has_hardware(isa::Opcode::kDiv));  // not in Table 5.1.1
}

TEST(HwLibrary, SetHardwareOptionsOverrides) {
  HwLibrary lib = HwLibrary::paper_default();
  lib.set_hardware_options(isa::Opcode::kXor, {{1.0, 5000.0}});
  const auto opts = lib.hardware_options(isa::Opcode::kXor);
  ASSERT_EQ(opts.size(), 1u);
  EXPECT_DOUBLE_EQ(opts[0].delay, 1.0);
  EXPECT_DOUBLE_EQ(opts[0].area, 5000.0);
}

TEST(HwLibrary, ClearingOptionsDisablesHardware) {
  HwLibrary lib = HwLibrary::paper_default();
  lib.set_hardware_options(isa::Opcode::kXor, {});
  EXPECT_FALSE(lib.has_hardware(isa::Opcode::kXor));
  EXPECT_TRUE(lib.hardware_options(isa::Opcode::kXor).empty());
}

TEST(HwLibrary, AllTable511DelaysFitOneCycle) {
  // §5.1: at 100 MHz every single-op hardware cell fits one 10 ns cycle.
  const HwLibrary lib = HwLibrary::paper_default();
  const ClockSpec clock;
  for (std::size_t i = 0; i < isa::kOpcodeCount; ++i) {
    const auto op = static_cast<isa::Opcode>(i);
    for (const ImplOption& o : lib.hardware_options(op))
      EXPECT_EQ(clock.cycles_for(o.delay), 1) << isa::mnemonic(op);
  }
}

}  // namespace
}  // namespace isex::hw
