// Implementation options and the per-operation IO table (§4.1).
//
// Every operation can execute either in *software* — a regular pipeline
// functional unit, one cycle in the paper's machine model — or in *hardware*
// — a combinational datapath cell inside an ASFU, with a synthesized delay
// (ns) and area (µm²).  An operation's alternatives are listed in its
// implementation-option (IO) table; annotating every DFG node with one turns
// G into G+ (Fig 4.1.1).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace isex::hw {

enum class ImplKind : std::uint8_t { kSoftware, kHardware };

struct ImplOption {
  ImplKind kind = ImplKind::kSoftware;
  /// Display name, e.g. "SW-1", "HW-2".
  std::string name;
  /// Software: delay in cycles.  Hardware: combinational delay in ns.
  double delay = 1.0;
  /// Extra silicon area in µm² (software options cost none).
  double area = 0.0;
};

/// Per-operation list of implementation options.  Software options come
/// first, then hardware options; the explorer indexes options by position.
class IoTable {
 public:
  IoTable() = default;
  explicit IoTable(std::vector<ImplOption> options);

  std::size_t size() const { return options_.size(); }
  const ImplOption& option(std::size_t index) const {
    ISEX_ASSERT(index < options_.size());
    return options_[index];
  }

  /// Index of the first software option; every IoTable has at least one,
  /// and software options are partitioned to the front.
  std::size_t first_software() const { return 0; }
  std::size_t num_software() const { return num_software_; }
  std::size_t num_hardware() const { return options_.size() - num_software_; }
  bool has_hardware() const { return num_hardware() > 0; }

  bool is_hardware(std::size_t index) const {
    return option(index).kind == ImplKind::kHardware;
  }

  const std::vector<ImplOption>& options() const { return options_; }

 private:
  std::vector<ImplOption> options_;
  std::size_t num_software_ = 0;
};

/// One operation's options as hw::GPlus lays them out: a read-only view of
/// the run an IoTable built (software first), with IoTable's queries.
class IoTableView {
 public:
  explicit IoTableView(std::span<const ImplOption> options)
      : options_(options) {
    ISEX_ASSERT(!options.empty() &&
                options.front().kind == ImplKind::kSoftware);
  }

  std::size_t size() const { return options_.size(); }
  const ImplOption& option(std::size_t index) const {
    ISEX_ASSERT(index < options_.size());
    return options_[index];
  }

  std::size_t first_software() const { return 0; }
  std::size_t num_software() const {
    return static_cast<std::size_t>(std::count_if(
        options_.begin(), options_.end(),
        [](const ImplOption& o) { return o.kind == ImplKind::kSoftware; }));
  }
  std::size_t num_hardware() const { return size() - num_software(); }
  /// Software options come first, so the last is hardware iff any is.
  bool has_hardware() const {
    return options_.back().kind == ImplKind::kHardware;
  }

  bool is_hardware(std::size_t index) const {
    return option(index).kind == ImplKind::kHardware;
  }

  std::span<const ImplOption> options() const { return options_; }

 private:
  std::span<const ImplOption> options_;
};

/// Core clock: the paper's machine runs at 100 MHz in 0.13 µm, so one cycle
/// is 10 ns, and every PISA instruction takes one cycle (§5.1).
struct ClockSpec {
  double period_ns = 10.0;

  /// Cycles needed to evaluate a combinational depth (≥ 1).
  int cycles_for(double depth_ns) const {
    ISEX_ASSERT(period_ns > 0.0);
    if (depth_ns <= 0.0) return 1;
    return std::max(1,
                    static_cast<int>(std::ceil(depth_ns / period_ns - 1e-9)));
  }
};

}  // namespace isex::hw
