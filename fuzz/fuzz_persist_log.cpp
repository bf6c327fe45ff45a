// libFuzzer target: the isex_serve persistent cache log loader (see
// fuzz_targets.hpp).
//
//   ./fuzz/fuzz_persist_log fuzz/corpus/persist -max_total_time=30
#include "fuzz_targets.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return isex::fuzz::run_persist_log_input(data, size);
}
