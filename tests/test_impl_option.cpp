#include "hwlib/impl_option.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "hwlib/hw_library.hpp"
#include "isa/opcode.hpp"
#include "util/rng.hpp"

namespace isex::hw {
namespace {

TEST(ClockSpec, DefaultIs100MHz) {
  const ClockSpec clock;
  EXPECT_DOUBLE_EQ(clock.period_ns, 10.0);
}

TEST(ClockSpec, CyclesForDepth) {
  const ClockSpec clock;
  EXPECT_EQ(clock.cycles_for(0.0), 1);
  EXPECT_EQ(clock.cycles_for(4.04), 1);
  EXPECT_EQ(clock.cycles_for(10.0), 1);   // exactly one period
  EXPECT_EQ(clock.cycles_for(10.01), 2);
  EXPECT_EQ(clock.cycles_for(19.99), 2);
  EXPECT_EQ(clock.cycles_for(35.0), 4);
}

TEST(ClockSpec, FasterClockNeedsMoreCycles) {
  ClockSpec fast;
  fast.period_ns = 2.0;  // 500 MHz
  EXPECT_EQ(fast.cycles_for(4.04), 3);
  EXPECT_EQ(fast.cycles_for(5.77), 3);
}

TEST(ClockSpec, NegativeDepthClampsToOneCycle) {
  const ClockSpec clock;
  EXPECT_EQ(clock.cycles_for(-1.0), 1);
}

TEST(ClockSpec, CyclesForMatchesCeilingReference) {
  // cycles_for takes the ceiling by truncation; it must equal
  // max(1, (int)ceil(d / p - 1e-9)) wherever the ceiling changes: at whole
  // multiples of the period ± 1 and 2 ulps, on either side of the 1e-9
  // tolerance, at sums of Table 5.1.1 delays, and at depths ≤ 0.
  const auto reference = [](double d, double p) {
    if (d <= 0.0) return 1;
    return std::max(1, static_cast<int>(std::ceil(d / p - 1e-9)));
  };
  std::vector<double> delays;
  const HwLibrary lib = HwLibrary::paper_default();
  for (std::size_t op = 0; op < isa::kOpcodeCount; ++op)
    for (const ImplOption& o :
         lib.hardware_options(static_cast<isa::Opcode>(op)))
      delays.push_back(o.delay);
  ASSERT_GE(delays.size(), 10u);

  std::size_t checked = 0;
  std::size_t steps = 0;  // depths whose reference differs from a neighbour's
  for (const double p : {10.0, 7.5, 2.5}) {
    ClockSpec clock;
    clock.period_ns = p;
    const auto expect_same = [&](double d) {
      ASSERT_EQ(clock.cycles_for(d), reference(d, p)) << "d=" << d << " p=" << p;
      ++checked;
    };
    for (const double d : {0.0, -0.0, -1e-300, -1.0, -p,
                           -std::numeric_limits<double>::infinity()})
      expect_same(d);
    for (int k = 0; k <= 64; ++k) {
      for (const double base : {k * p, (k + 1e-9) * p}) {
        double up = base;
        double down = base;
        for (int ulp = 0; ulp <= 2; ++ulp) {
          expect_same(up);
          expect_same(down);
          steps += reference(up, p) != reference(down, p);
          up = std::nextafter(up, std::numeric_limits<double>::infinity());
          down = std::nextafter(down, -std::numeric_limits<double>::infinity());
        }
      }
    }
    Rng rng(9);
    for (int i = 0; i < 20000; ++i) {
      double d = 0.0;
      const std::uint32_t terms = 1 + rng.next_below(12);
      for (std::uint32_t t = 0; t < terms; ++t)
        d += delays[rng.next_below(static_cast<std::uint32_t>(delays.size()))];
      expect_same(d);
    }
  }
  EXPECT_GT(checked, 60000u);
  EXPECT_GT(steps, 0u);  // the sweep straddles the ceiling's steps
}

}  // namespace
}  // namespace isex::hw
