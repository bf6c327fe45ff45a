// Crash-test writer for PersistentCacheTest.KilledWriterLeavesALoadableLog.
//
//   persist_crash_writer <log>
//
// Loads the log, then appends the records of persist_crash_writer.hpp from
// n = (schedule records loaded) on, flushing every 64 sequence numbers, until
// it is killed.  Between flushes stdio writes out whole buffers, so a kill
// can leave the log ending inside a record.  It gives up on its own only if
// its parent goes away or the log passes about 8 MB, so an aborted test
// leaves no writer running.
#include <unistd.h>

#include <cstdio>

#include "persist_crash_writer.hpp"
#include "runtime/persistent_cache.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <log>\n", argv[0]);
    return 2;
  }
  isex::runtime::PersistentEvalCache cache(argv[1]);
  const isex::runtime::PersistLoadReport loaded = cache.load(nullptr);
  const pid_t parent = getppid();
  constexpr std::uint64_t kMaxRecords = 50000;
  for (std::uint64_t n = loaded.schedule_entries; n < kMaxRecords; ++n) {
    cache.put_schedule_eval(isex::testing::crash_writer_schedule_key(n),
                            isex::testing::crash_writer_value(n));
    if (isex::testing::crash_writer_has_blob(n))
      cache.put_blob(isex::testing::crash_writer_blob_key(n),
                     isex::testing::crash_writer_blob(n));
    if (n % 64 == 63) {
      cache.flush();
      if (getppid() != parent) return 3;
    }
  }
  return 3;
}
