#include "isa/opcode.hpp"

#include <algorithm>

namespace isex::isa {
namespace {

/// Longest mnemonic the lookup packs: seven bytes plus the length.
constexpr std::size_t kMaxMnemonic = 7;

/// A mnemonic of at most kMaxMnemonic bytes packed into one integer, its
/// length in the top byte, so equal keys mean equal strings.
constexpr std::uint64_t mnemonic_key(std::string_view text) {
  std::uint64_t key = static_cast<std::uint64_t>(text.size()) << 56;
  for (std::size_t i = 0; i < text.size(); ++i)
    key |= static_cast<std::uint64_t>(static_cast<unsigned char>(text[i]))
           << (8 * i);
  return key;
}

struct MnemonicEntry {
  std::uint64_t key;
  Opcode op;
};

/// detail::kTraitsTable's mnemonics sorted by key, built at compile time
/// so no second table can drift from it.
constexpr auto kByMnemonic = [] {
  std::array<MnemonicEntry, kOpcodeCount> entries{};
  for (std::size_t i = 0; i < kOpcodeCount; ++i)
    entries[i] = {mnemonic_key(detail::kTraitsTable[i].mnemonic),
                  static_cast<Opcode>(i)};
  std::sort(entries.begin(), entries.end(),
            [](const MnemonicEntry& a, const MnemonicEntry& b) {
              return a.key < b.key;
            });
  return entries;
}();

constexpr bool keys_are_exact() {
  for (const OpcodeTraits& t : detail::kTraitsTable)
    if (t.mnemonic.empty() || t.mnemonic.size() > kMaxMnemonic) return false;
  for (std::size_t i = 1; i < kByMnemonic.size(); ++i)
    if (kByMnemonic[i - 1].key == kByMnemonic[i].key) return false;
  return true;
}
static_assert(keys_are_exact(),
              "every mnemonic is 1..kMaxMnemonic bytes and unique");

}  // namespace

std::optional<Opcode> opcode_from_mnemonic(std::string_view mnemonic) {
  if (mnemonic.size() > kMaxMnemonic) return std::nullopt;
  const std::uint64_t key = mnemonic_key(mnemonic);
  const auto it = std::lower_bound(
      kByMnemonic.begin(), kByMnemonic.end(), key,
      [](const MnemonicEntry& e, std::uint64_t k) { return e.key < k; });
  if (it == kByMnemonic.end() || it->key != key) return std::nullopt;
  return it->op;
}

}  // namespace isex::isa
