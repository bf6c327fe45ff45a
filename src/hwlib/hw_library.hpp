// Hardware implementation library — the paper's Table 5.1.1.
//
// Maps each PISA opcode to its synthesized hardware cells (0.13 µm CMOS,
// Synopsys Design Compiler / Chalmers arithmetic database numbers), each a
// (delay, area) pair.  Opcodes without an entry (memory, branches, division)
// cannot join an ISE.  The software option is not stored here: hw::GPlus
// writes it in front of each node's cells.
#pragma once

#include <span>
#include <vector>

#include "hwlib/impl_option.hpp"
#include "isa/opcode.hpp"

namespace isex::hw {

class HwLibrary {
 public:
  /// The exact Table 5.1.1 database.
  static HwLibrary paper_default();

  /// Replaces the hardware cells of one opcode (for ablations/tests).
  void set_hardware_options(isa::Opcode op, std::vector<ImplOption> options);

  /// The opcode's hardware cells in library order; a node's option k + 1
  /// in G+ is cell k, and Table 5.1.1 names it "HW-<k + 1>".
  std::span<const ImplOption> hardware_options(isa::Opcode op) const;
  bool has_hardware(isa::Opcode op) const;

 private:
  std::vector<std::vector<ImplOption>> by_opcode_ =
      std::vector<std::vector<ImplOption>>(isa::kOpcodeCount);
};

}  // namespace isex::hw
