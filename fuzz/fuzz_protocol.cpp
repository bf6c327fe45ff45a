// libFuzzer target: isex_serve request lines and kernel admission (see
// fuzz_targets.hpp).
//
//   ./fuzz/fuzz_protocol fuzz/corpus/protocol -max_total_time=30
#include "fuzz_targets.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return isex::fuzz::run_protocol_input(data, size);
}
