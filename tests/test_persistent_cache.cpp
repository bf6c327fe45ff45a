// PersistentEvalCache edge cases: round-trip, warm start, corrupt-record
// tolerance (truncated tail, checksum flip, version mismatch), appends after
// a torn tail, duplicate suppression, the EvalCache write-through sink,
// concurrent writers (part of the TSan CI matrix), a writer process killed
// mid-append, and agreement with the serial reference loader.
#include "runtime/persistent_cache.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "persist_crash_writer.hpp"
#include "persist_reference.hpp"
#include "runtime/eval_cache.hpp"

extern char** environ;

namespace isex::runtime {
namespace {

Key128 key_of(std::uint64_t n) {
  Hash64 lo(1), hi(2);
  lo.mix(n);
  hi.mix(n);
  return Key128{lo.value(), hi.value()};
}

class PersistentCacheTest : public ::testing::Test {
 protected:
  /// Fresh per-test path (the file does not exist yet).
  std::string cache_path() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string path = ::testing::TempDir() + "isex_persist_" +
                       info->test_suite_name() + "_" + info->name() + ".log";
    std::remove(path.c_str());
    return path;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  static void write_file(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
};

TEST_F(PersistentCacheTest, MissingFileLoadsEmpty) {
  const std::string path = cache_path();
  PersistentEvalCache cache(path);
  const PersistLoadReport report = cache.load(nullptr);
  EXPECT_EQ(report.schedule_entries, 0u);
  EXPECT_EQ(report.blob_entries, 0u);
  EXPECT_EQ(report.corrupt_skipped, 0u);
  EXPECT_FALSE(report.version_mismatch);
  EXPECT_TRUE(report.report.ok());
}

TEST_F(PersistentCacheTest, RoundTripScheduleEvalsAndBlobs) {
  const std::string path = cache_path();
  {
    PersistentEvalCache cache(path);
    cache.load(nullptr);
    for (std::uint64_t i = 0; i < 50; ++i)
      cache.put_schedule_eval(key_of(i), static_cast<int>(i * 3));
    cache.put_blob(key_of(1000), "first blob");
    cache.put_blob(key_of(1001), std::string("binary\0payload", 14));
    cache.flush();
  }
  EvalCache warmed(1 << 10, 4);
  PersistentEvalCache reloaded(path);
  const PersistLoadReport report = reloaded.load(&warmed);
  EXPECT_EQ(report.schedule_entries, 50u);
  EXPECT_EQ(report.blob_entries, 2u);
  EXPECT_EQ(report.corrupt_skipped, 0u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto hit = warmed.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, static_cast<int>(i * 3));
  }
  EXPECT_EQ(reloaded.lookup_blob(key_of(1000)), "first blob");
  EXPECT_EQ(reloaded.lookup_blob(key_of(1001)),
            std::string("binary\0payload", 14));
  EXPECT_FALSE(reloaded.lookup_blob(key_of(999)).has_value());
}

TEST_F(PersistentCacheTest, LastBlobRecordWinsOnLoad) {
  const std::string path = cache_path();
  {
    PersistentEvalCache cache(path);
    cache.load(nullptr);
    cache.put_blob(key_of(7), "stale");
    cache.put_blob(key_of(7), "fresh");
    cache.flush();
  }
  PersistentEvalCache reloaded(path);
  reloaded.load(nullptr);
  EXPECT_EQ(reloaded.lookup_blob(key_of(7)), "fresh");
}

TEST_F(PersistentCacheTest, DuplicateScheduleEvalNotReappended) {
  const std::string path = cache_path();
  PersistentEvalCache cache(path);
  cache.load(nullptr);
  cache.put_schedule_eval(key_of(1), 42);
  cache.put_schedule_eval(key_of(1), 42);  // same key: skipped
  EXPECT_EQ(cache.stats().appends, 1u);
}

TEST_F(PersistentCacheTest, TruncatedTrailingRecordSkipped) {
  const std::string path = cache_path();
  {
    PersistentEvalCache cache(path);
    cache.load(nullptr);
    cache.put_schedule_eval(key_of(1), 11);
    cache.put_schedule_eval(key_of(2), 22);
    cache.flush();
  }
  // Chop the last record mid-payload: a torn append after a crash.
  std::string data = read_file(path);
  write_file(path, data.substr(0, data.size() - 9));

  EvalCache warmed(1 << 10, 4);
  PersistentEvalCache reloaded(path);
  const PersistLoadReport report = reloaded.load(&warmed);
  EXPECT_EQ(report.schedule_entries, 1u);
  EXPECT_EQ(report.corrupt_skipped, 1u);
  EXPECT_TRUE(report.report.ok());  // corruption is a warning, not an error
  EXPECT_FALSE(report.report.empty());
  EXPECT_EQ(report.report.issues()[0].code(), ErrorCode::kPersistCorruptRecord);
  EXPECT_TRUE(warmed.lookup(key_of(1)).has_value());
  EXPECT_FALSE(warmed.lookup(key_of(2)).has_value());
}

TEST_F(PersistentCacheTest, ChecksumFlipSkipsRecordAndResyncs) {
  const std::string path = cache_path();
  {
    PersistentEvalCache cache(path);
    cache.load(nullptr);
    cache.put_schedule_eval(key_of(1), 11);
    cache.put_schedule_eval(key_of(2), 22);
    cache.flush();
  }
  // Flip one byte inside the *first* record's payload (header is 16 bytes,
  // record prefix is 21): the record fails its checksum, the reader must
  // resynchronize and still load the second record.
  std::string data = read_file(path);
  data[16 + 21] = static_cast<char>(data[16 + 21] ^ 0x40);
  write_file(path, data);

  EvalCache warmed(1 << 10, 4);
  PersistentEvalCache reloaded(path);
  const PersistLoadReport report = reloaded.load(&warmed);
  EXPECT_EQ(report.schedule_entries, 1u);
  EXPECT_EQ(report.corrupt_skipped, 1u);
  EXPECT_FALSE(warmed.lookup(key_of(1)).has_value());
  EXPECT_TRUE(warmed.lookup(key_of(2)).has_value());
}

TEST_F(PersistentCacheTest, VersionMismatchIgnoredWithWarning) {
  const std::string path = cache_path();
  {
    PersistentEvalCache cache(path);
    cache.load(nullptr);
    cache.put_schedule_eval(key_of(1), 11);
    cache.flush();
  }
  // Bump the version field (bytes 8..11) to a future format.
  std::string data = read_file(path);
  data[8] = static_cast<char>(PersistentEvalCache::kFormatVersion + 1);
  write_file(path, data);

  EvalCache warmed(1 << 10, 4);
  PersistentEvalCache reloaded(path);
  const PersistLoadReport report = reloaded.load(&warmed);
  EXPECT_TRUE(report.version_mismatch);
  EXPECT_EQ(report.schedule_entries, 0u);
  ASSERT_FALSE(report.report.empty());
  EXPECT_EQ(report.report.issues()[0].code(),
            ErrorCode::kPersistVersionMismatch);
  EXPECT_EQ(report.report.issues()[0].severity(), Severity::kWarning);
  EXPECT_TRUE(report.report.ok());

  // Appending after a mismatch rewrites the file in the current format.
  reloaded.put_schedule_eval(key_of(9), 99);
  reloaded.flush();
  PersistentEvalCache fresh(path);
  const PersistLoadReport fresh_report = fresh.load(&warmed);
  EXPECT_FALSE(fresh_report.version_mismatch);
  EXPECT_EQ(fresh_report.schedule_entries, 1u);
  EXPECT_EQ(warmed.lookup(key_of(9)), 99);
}

TEST_F(PersistentCacheTest, GarbageFileIgnoredWithWarning) {
  const std::string path = cache_path();
  write_file(path, "this is not a cache file\n");
  PersistentEvalCache cache(path);
  const PersistLoadReport report = cache.load(nullptr);
  EXPECT_TRUE(report.version_mismatch);
  EXPECT_TRUE(report.report.ok());
}

TEST_F(PersistentCacheTest, EvalCacheSinkWritesThrough) {
  const std::string path = cache_path();
  {
    EvalCache cache(1 << 10, 4);
    PersistentEvalCache persist(path);
    persist.load(&cache);
    cache.set_persist_sink([&persist](const Key128& key, int value) {
      persist.put_schedule_eval(key, value);
    });
    cache.insert(key_of(1), 10);
    cache.insert(key_of(2), 20);
    cache.insert(key_of(1), 10);  // duplicate insert: no fresh insertion
    cache.set_persist_sink(nullptr);
    cache.insert(key_of(3), 30);  // after detach: not persisted
    persist.flush();
    EXPECT_EQ(persist.stats().appends, 2u);
  }
  EvalCache warmed(1 << 10, 4);
  PersistentEvalCache reloaded(path);
  const PersistLoadReport report = reloaded.load(&warmed);
  EXPECT_EQ(report.schedule_entries, 2u);
  EXPECT_EQ(warmed.lookup(key_of(1)), 10);
  EXPECT_EQ(warmed.lookup(key_of(2)), 20);
  EXPECT_FALSE(warmed.lookup(key_of(3)).has_value());
}

TEST_F(PersistentCacheTest, ConcurrentWritersSerialized) {
  const std::string path = cache_path();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 64;
  {
    PersistentEvalCache cache(path);
    cache.load(nullptr);
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&cache, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t n =
              static_cast<std::uint64_t>(t) * kPerThread + i;
          cache.put_schedule_eval(key_of(n), static_cast<int>(n));
          if (i % 8 == 0)
            cache.put_blob(key_of(100000 + n), "blob " + std::to_string(n));
        }
      });
    }
    for (std::thread& w : writers) w.join();
    cache.flush();
  }
  // Every record must come back intact: interleaved appends corrupt the
  // framing, so a clean reload is the serialization proof.
  EvalCache warmed(1 << 12, 4);
  PersistentEvalCache reloaded(path);
  const PersistLoadReport report = reloaded.load(&warmed);
  EXPECT_EQ(report.corrupt_skipped, 0u);
  EXPECT_EQ(report.schedule_entries, kThreads * kPerThread);
  EXPECT_EQ(report.blob_entries, kThreads * (kPerThread / 8));
  for (std::uint64_t n = 0; n < kThreads * kPerThread; ++n)
    EXPECT_EQ(warmed.lookup(key_of(n)), static_cast<int>(n)) << n;
}

// A load that stops at a torn record leaves the torn bytes on disk; the
// first append must cut them off, or the next load frames the torn length
// over the appended records.  Cut points: into the payload (9 bytes off the
// end), into the 21-byte prefix (20 and 30), and a length field above the
// payload cap.
TEST_F(PersistentCacheTest, AppendAfterTornTailSurvivesReload) {
  const std::string path = cache_path();
  for (const int cut : {9, 20, 30, -1}) {
    SCOPED_TRACE(cut < 0 ? std::string("oversized length")
                         : "cut " + std::to_string(cut));
    std::remove(path.c_str());
    {
      PersistentEvalCache cache(path);
      cache.load(nullptr);
      cache.put_schedule_eval(key_of(1), 11);
      cache.put_schedule_eval(key_of(2), 22);
      cache.flush();
    }
    std::string data = read_file(path);
    if (cut < 0) {
      data[16 + 33 + 4] = 0x7f;  // second record's length: far above 64 MiB
    } else {
      data.resize(data.size() - static_cast<std::size_t>(cut));
    }
    write_file(path, data);
    {
      EvalCache warmed(1 << 10, 4);
      PersistentEvalCache cache(path);
      const PersistLoadReport torn = cache.load(&warmed);
      EXPECT_EQ(torn.schedule_entries, 1u);
      EXPECT_EQ(torn.corrupt_skipped, 1u);
      cache.put_schedule_eval(key_of(3), 33);
      cache.put_schedule_eval(key_of(4), 44);
      cache.put_blob(key_of(5), "after the tear");
      cache.flush();
    }
    EvalCache warmed(1 << 10, 4);
    PersistentEvalCache reloaded(path);
    const PersistLoadReport report = reloaded.load(&warmed);
    EXPECT_EQ(report.schedule_entries, 3u);
    EXPECT_EQ(report.blob_entries, 1u);
    EXPECT_EQ(report.corrupt_skipped, 0u);
    EXPECT_EQ(warmed.lookup(key_of(1)), 11);
    EXPECT_EQ(warmed.lookup(key_of(3)), 33);
    EXPECT_EQ(warmed.lookup(key_of(4)), 44);
    EXPECT_EQ(reloaded.lookup_blob(key_of(5)), "after the tear");
  }
}

// A writer process killed with SIGKILL at several log sizes leaves a log
// whose every loaded record is the one its key was written with, with at
// most one corrupt record (the torn tail), and records appended after that
// load survive the next one.
TEST_F(PersistentCacheTest, KilledWriterLeavesALoadableLog) {
  const std::string path = cache_path();
  for (const std::uintmax_t kill_at : {4u << 10, 32u << 10, 160u << 10,
                                       640u << 10}) {
    SCOPED_TRACE("killed past " + std::to_string(kill_at) + " bytes");
    std::remove(path.c_str());
    std::string writer = ISEX_PERSIST_WRITER;
    std::string log = path;
    char* argv[] = {writer.data(), log.data(), nullptr};
    pid_t pid = 0;
    ASSERT_EQ(posix_spawn(&pid, writer.c_str(), nullptr, nullptr, argv,
                          environ),
              0);
    int status = 0;
    bool exited = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(path, ec);
      if (!ec && size >= kill_at) break;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!exited) {
      kill(pid, SIGKILL);
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
    }
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the writer ended before it was killed, status " << status;

    // The writer appends n = 0, 1, 2, ... in order, so a clean load holds
    // exactly the records of n below its schedule count.
    EvalCache warmed(1 << 16, 4);
    PersistentEvalCache cache(path);
    const PersistLoadReport first = cache.load(&warmed);
    EXPECT_FALSE(first.version_mismatch);
    EXPECT_LE(first.corrupt_skipped, 1u);
    const std::uint64_t count = first.schedule_entries;
    EXPECT_EQ(cache.schedule_entry_count(), count);
    std::uint64_t blobs = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
      ASSERT_EQ(warmed.lookup(testing::crash_writer_schedule_key(n)),
                testing::crash_writer_value(n))
          << n;
      const std::optional<std::string> blob =
          cache.lookup_blob(testing::crash_writer_blob_key(n));
      if (!blob.has_value()) continue;
      ASSERT_TRUE(testing::crash_writer_has_blob(n)) << n;
      ASSERT_EQ(*blob, testing::crash_writer_blob(n)) << n;
      ++blobs;
    }
    EXPECT_EQ(blobs, first.blob_entries);
    EXPECT_EQ(cache.blob_entry_count(), first.blob_entries);

    for (std::uint64_t n = count; n < count + 3; ++n)
      cache.put_schedule_eval(testing::crash_writer_schedule_key(n),
                              testing::crash_writer_value(n));
    cache.put_blob(testing::crash_writer_blob_key(count),
                   testing::crash_writer_blob(count));
    cache.flush();

    EvalCache rewarmed(1 << 16, 4);
    PersistentEvalCache reloaded(path);
    const PersistLoadReport second = reloaded.load(&rewarmed);
    EXPECT_EQ(second.schedule_entries, count + 3);
    EXPECT_EQ(second.blob_entries, first.blob_entries + 1);
    EXPECT_EQ(second.corrupt_skipped, 0u);
    for (std::uint64_t n = count; n < count + 3; ++n)
      EXPECT_EQ(rewarmed.lookup(testing::crash_writer_schedule_key(n)),
                testing::crash_writer_value(n));
    EXPECT_EQ(reloaded.lookup_blob(testing::crash_writer_blob_key(count)),
              testing::crash_writer_blob(count));
  }
}

/// A seeded random log: schedule records, 0-4 KB blobs (some under
/// repeated keys), the odd unknown type or misfit payload, then byte flips
/// in prefixes, payloads and checksums, and sometimes a torn tail, an
/// oversized length or a bad version.  One seed in 40 writes more than two
/// of load()'s windows of records.
std::string random_log(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  std::string log = testing::reference_header();
  std::vector<std::size_t> starts;
  std::vector<Key128> blob_keys;
  const std::uint64_t records = seed % 40 == 7 ? 9000 + below(500) : below(80);
  for (std::uint64_t i = 0; i < records; ++i) {
    starts.push_back(log.size());
    const std::uint64_t kind = below(100);
    const Key128 key = key_of(rng());
    if (kind < 55) {
      std::string payload;
      testing::ref_put_u32(payload, static_cast<std::uint32_t>(rng()));
      // One in ten reuses one of four keys: duplicate schedule keys.
      log += testing::reference_record(
          1, below(10) == 0 ? key_of(seed + below(4)) : key, payload);
      continue;
    }
    if (kind < 95) {
      std::string payload(records > 100 ? below(300) : below(4097), '\0');
      for (char& c : payload) c = static_cast<char>(rng());
      const bool repeat = !blob_keys.empty() && below(4) == 0;
      const Key128 blob_key =
          repeat ? blob_keys[below(blob_keys.size())] : key;
      blob_keys.push_back(blob_key);
      log += testing::reference_record(2, blob_key, payload);
      continue;
    }
    // Unknown type, or a schedule record whose payload is not 4 bytes.
    log += kind < 98 ? testing::reference_record(3, key, "xyz")
                     : testing::reference_record(1, key, "12345");
  }

  const std::uint64_t flips = below(4);
  for (std::uint64_t f = 0; f < flips && !starts.empty(); ++f) {
    const std::size_t start = starts[below(starts.size())];
    const std::size_t len = testing::ref_get_u32(
        reinterpret_cast<const unsigned char*>(log.data()) + start + 1);
    std::size_t at = start;
    switch (below(3)) {
      case 0:  // prefix
        at += below(21);
        break;
      case 1:  // payload
        at += 21 + (len > 0 ? below(len) : 0);
        break;
      default:  // checksum
        at += 21 + len + below(8);
        break;
    }
    if (at < log.size())
      log[at] = static_cast<char>(log[at] ^ (1 + below(255)));
  }
  if (!starts.empty() && below(6) == 0) {  // oversized length field
    const std::size_t start = starts[below(starts.size())];
    log[start + 4] = static_cast<char>(0x04 + below(0xfc));
  }
  if (below(5) == 0 && log.size() > 16) {  // torn tail
    const std::size_t cut =
        1 + below(std::min<std::size_t>(log.size() - 16, 60));
    log.resize(log.size() - cut);
  }
  if (below(25) == 0) log[8] = 2;             // bad version
  if (below(50) == 0) log.resize(below(17));  // short or empty file
  return log;
}

// The windowed, lane-verified load gives exactly the serial reference's
// report, warmed EvalCache and blob index on every input.
TEST_F(PersistentCacheTest, LoadMatchesSerialReference) {
  const std::string path = cache_path();
  const auto check = [&path](const std::string& trace) {
    SCOPED_TRACE(trace);
    EvalCache warmed(1 << 15, 4);
    EvalCache ref_warm(1 << 15, 4);
    PersistentEvalCache cache(path);
    const PersistLoadReport got = cache.load(&warmed);
    const testing::ReferenceLoad want =
        testing::reference_load(path, &ref_warm);
    EXPECT_EQ(
        testing::diff_against_reference(got, cache, warmed, want, ref_warm),
        "");
    return got;
  };

  PersistLoadReport total;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    write_file(path, random_log(seed));
    const PersistLoadReport got = check("seed " + std::to_string(seed));
    total.schedule_entries += got.schedule_entries;
    total.blob_entries += got.blob_entries;
    total.corrupt_skipped += got.corrupt_skipped;
    total.version_mismatch |= got.version_mismatch;
  }
  // The inputs reach every outcome.
  EXPECT_GT(total.schedule_entries, 0u);
  EXPECT_GT(total.blob_entries, 0u);
  EXPECT_GT(total.corrupt_skipped, 0u);
  EXPECT_TRUE(total.version_mismatch);

  write_file(path, read_file(std::string(ISEX_TEST_DATA_DIR) +
                             "/warm_start.cache"));
  EXPECT_GT(check("tests/data/warm_start.cache").blob_entries, 0u);
}

}  // namespace
}  // namespace isex::runtime
