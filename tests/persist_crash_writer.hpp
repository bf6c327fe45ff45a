// The records persist_crash_writer appends, as functions of a sequence
// number n: schedule evaluation n, and for every third n a blob whose
// length varies from 0 to 700 bytes.  PersistentCacheTest.
// KilledWriterLeavesALoadableLog recomputes them to check what a killed
// writer left on disk.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/hash.hpp"

namespace isex::testing {

inline runtime::Key128 crash_writer_key(std::uint64_t n, std::uint64_t kind) {
  runtime::Hash64 lo(0xc0ffee ^ kind), hi(0xbeef ^ kind);
  lo.mix(n);
  hi.mix(n);
  return runtime::Key128{lo.value(), hi.value()};
}

inline runtime::Key128 crash_writer_schedule_key(std::uint64_t n) {
  return crash_writer_key(n, 1);
}

inline int crash_writer_value(std::uint64_t n) {
  return static_cast<int>(n * 7 + 3);
}

inline bool crash_writer_has_blob(std::uint64_t n) { return n % 3 == 0; }

inline runtime::Key128 crash_writer_blob_key(std::uint64_t n) {
  return crash_writer_key(n, 2);
}

inline std::string crash_writer_blob(std::uint64_t n) {
  std::string payload((n * 97) % 701, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>((n + i * 31) & 0xff);
  return payload;
}

}  // namespace isex::testing
