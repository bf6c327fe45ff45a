#include "isa/opcode.hpp"

namespace isex::isa {

std::optional<Opcode> opcode_from_mnemonic(std::string_view mnemonic) {
  for (std::size_t i = 0; i < kOpcodeCount; ++i) {
    if (detail::kTraitsTable[i].mnemonic == mnemonic)
      return static_cast<Opcode>(i);
  }
  return std::nullopt;
}

}  // namespace isex::isa
