// Hardware cells and the core clock (§4.1, §5.1).
//
// Every operation can execute either in *software* — a regular pipeline
// functional unit, one cycle in the paper's machine model — or in *hardware*
// — a combinational datapath cell inside an ASFU, with a synthesized delay
// (ns) and area (µm²).  The hardware library lists each opcode's cells
// (Table 5.1.1); hw::GPlus prepends the software option to them, which turns
// G into G+ (Fig 4.1.1).
#pragma once

#include <algorithm>

#include "util/assert.hpp"

namespace isex::hw {

/// One hardware cell of an operation.
struct ImplOption {
  /// Combinational delay in ns.
  double delay = 1.0;
  /// Silicon area in µm².
  double area = 0.0;
};

/// Core clock: the paper's machine runs at 100 MHz in 0.13 µm, so one cycle
/// is 10 ns, and every PISA instruction takes one cycle (§5.1).
struct ClockSpec {
  double period_ns = 10.0;

  /// Cycles needed to evaluate a combinational depth (≥ 1):
  /// max(1, ⌈depth/period − 1e-9⌉).  The ceiling is a truncation plus one
  /// when a fraction was dropped, exact for every quotient in int range
  /// (a positive depth makes the quotient greater than −1).
  int cycles_for(double depth_ns) const {
    ISEX_ASSERT(period_ns > 0.0);
    if (depth_ns <= 0.0) return 1;
    const double q = depth_ns / period_ns - 1e-9;
    const int whole = static_cast<int>(q);
    return std::max(1, whole + (static_cast<double>(whole) < q ? 1 : 0));
  }
};

}  // namespace isex::hw
