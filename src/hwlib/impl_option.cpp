#include "hwlib/impl_option.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace isex::hw {

IoTable::IoTable(std::vector<ImplOption> options) : options_(std::move(options)) {
  // Keep software options in front so option indices are stable and the
  // "first software" query is trivial.
  std::stable_partition(options_.begin(), options_.end(), [](const ImplOption& o) {
    return o.kind == ImplKind::kSoftware;
  });
  num_software_ = static_cast<std::size_t>(
      std::count_if(options_.begin(), options_.end(), [](const ImplOption& o) {
        return o.kind == ImplKind::kSoftware;
      }));
  ISEX_ASSERT_MSG(num_software_ >= 1,
                  "every operation needs at least one software option");
}

}  // namespace isex::hw
