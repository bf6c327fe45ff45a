#include "hwlib/hw_library.hpp"

#include "util/assert.hpp"

namespace isex::hw {

HwLibrary HwLibrary::paper_default() {
  using isa::Opcode;
  HwLibrary lib;

  // Table 5.1.1 — delay (ns) / area (µm²) per hardware cell, HW-1 first.
  // Opcode families share datapath cells exactly as the table groups them.
  const std::vector<ImplOption> add_opts = {{4.04, 926.33}, {2.12, 2075.35}};
  for (const Opcode op : {Opcode::kAdd, Opcode::kAddi, Opcode::kAddu, Opcode::kAddiu})
    lib.set_hardware_options(op, add_opts);

  const std::vector<ImplOption> sub_opts = {{4.04, 926.33}, {2.14, 2049.41}};
  for (const Opcode op : {Opcode::kSub, Opcode::kSubu})
    lib.set_hardware_options(op, sub_opts);

  lib.set_hardware_options(Opcode::kMult, {{5.77, 84428.0}});
  lib.set_hardware_options(Opcode::kMultu, {{5.65, 79778.1}});

  const std::vector<ImplOption> and_opts = {{1.58, 214.31}};
  for (const Opcode op : {Opcode::kAnd, Opcode::kAndi})
    lib.set_hardware_options(op, and_opts);

  const std::vector<ImplOption> or_opts = {{1.85, 214.21}};
  for (const Opcode op : {Opcode::kOr, Opcode::kOri})
    lib.set_hardware_options(op, or_opts);

  lib.set_hardware_options(Opcode::kXor, {{4.17, 375.1}});
  lib.set_hardware_options(Opcode::kXori, {{2.01, 565.14}});
  lib.set_hardware_options(Opcode::kNor, {{2.00, 250.00}});

  const std::vector<ImplOption> slt_opts = {{2.64, 1144.0}, {1.01, 2636.0}};
  for (const Opcode op :
       {Opcode::kSlt, Opcode::kSlti, Opcode::kSltu, Opcode::kSltiu})
    lib.set_hardware_options(op, slt_opts);

  const std::vector<ImplOption> shift_opts = {{3.00, 400.00}};
  for (const Opcode op : {Opcode::kSll, Opcode::kSllv, Opcode::kSrl,
                          Opcode::kSrlv, Opcode::kSra, Opcode::kSrav})
    lib.set_hardware_options(op, shift_opts);

  return lib;
}

void HwLibrary::set_hardware_options(isa::Opcode op,
                                     std::vector<ImplOption> options) {
  for (const ImplOption& o : options)
    ISEX_ASSERT(o.delay > 0.0 && o.area >= 0.0);
  ISEX_ASSERT_MSG(options.empty() || isa::ise_eligible(op),
                  "memory/branch opcodes cannot have hardware options");
  by_opcode_[static_cast<std::size_t>(op)] = std::move(options);
}

std::span<const ImplOption> HwLibrary::hardware_options(isa::Opcode op) const {
  return by_opcode_[static_cast<std::size_t>(op)];
}

bool HwLibrary::has_hardware(isa::Opcode op) const {
  return !hardware_options(op).empty();
}

}  // namespace isex::hw
