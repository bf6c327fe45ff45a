// Disk-backed persistence for evaluation results — the warm-start layer
// under isex_serve (docs/SERVER.md).
//
// The in-memory EvalCache makes repeat evaluations cheap *within* a process;
// a long-running service also wants them cheap *across* restarts, and wants
// whole job results (serialized responses) to survive alongside the per-
// schedule cycle counts.  PersistentEvalCache stores both in one append-only
// log with an in-memory index:
//
//   * schedule-eval records: Key128 -> int32 cycle count, the exact entries
//     the sharded EvalCache holds.  load() replays them into a target cache
//     (warm start) and EvalCache's persist sink appends fresh insertions.
//   * blob records: Key128 -> opaque bytes.  isex_serve keys them on the
//     canonical job signature (graph_digest x machine x flow params) and
//     stores the serialized job result, so a repeat submission is answered
//     without re-exploring.
//
// Keys are the canonical structural signatures from hash.hpp — pure
// functions of their inputs, stable across platforms and runs — so a record
// written by one process is valid in any other.
//
// Durability model: append-only, one fsync-free write per record (a cache
// may lose its tail on power failure; it must never return a wrong value).
// Every record carries a checksum.  On load, a record that is truncated,
// oversized, or fails its checksum is *skipped and counted* — never a
// crash, never a partial entry — and a header from a different format
// version ignores the whole file (the next append starts it fresh).  When
// the scan stops at a torn record, the first append cuts the file back to
// the last whole record, so what it writes survives the next load.
// Appends are serialized by a mutex, so concurrent workers interleave whole
// records, never bytes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "runtime/eval_cache.hpp"
#include "runtime/hash.hpp"
#include "util/error.hpp"

namespace isex::runtime {

/// What load() found in the log file.
struct PersistLoadReport {
  /// Schedule-eval records replayed into the target EvalCache.
  std::uint64_t schedule_entries = 0;
  /// Blob records indexed for lookup_blob().
  std::uint64_t blob_entries = 0;
  /// Records skipped: truncated tail, oversized length, or bad checksum.
  std::uint64_t corrupt_skipped = 0;
  /// The file had a valid-looking header from another format version; its
  /// contents were ignored and the file will be rewritten on first append.
  bool version_mismatch = false;
  /// Diagnostics (warnings for corruption/version, errors for I/O).
  ValidationReport report;
};

struct PersistStats {
  std::uint64_t appends = 0;
  std::uint64_t append_failures = 0;
  std::uint64_t blob_hits = 0;
  std::uint64_t blob_misses = 0;
};

class PersistentEvalCache {
 public:
  /// On-disk format version; bump on any layout change.  A file with a
  /// different version is ignored (warned, never read) — caches regenerate.
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Binds to `path` without touching the disk; call load() to read it.
  explicit PersistentEvalCache(std::string path);
  ~PersistentEvalCache();

  PersistentEvalCache(const PersistentEvalCache&) = delete;
  PersistentEvalCache& operator=(const PersistentEvalCache&) = delete;

  /// Reads the log: schedule-eval records are inserted into `warm_into`
  /// (skipped when null) and blob records into the in-memory blob index.
  /// A missing file is a clean empty load.  Never throws; defects are
  /// counted and reported in the result.
  PersistLoadReport load(EvalCache* warm_into);

  /// Appends one schedule evaluation.  Keys already persisted (loaded or
  /// appended earlier in this process) are skipped, so wiring this as an
  /// EvalCache persist sink cannot grow the log with duplicates even when
  /// the in-memory cache evicts and re-inserts.
  void put_schedule_eval(const Key128& key, int value);

  /// Appends (and indexes) one result blob; a key already present is
  /// overwritten in the index and re-appended (last record wins on load).
  void put_blob(const Key128& key, std::string_view payload);

  std::optional<std::string> lookup_blob(const Key128& key);

  /// Flushes buffered appends to the OS.
  void flush();

  PersistStats stats() const;
  const std::string& path() const { return path_; }

  /// Schedule-eval keys persisted so far (loaded + appended this process).
  std::uint64_t schedule_entry_count() const;
  /// Blob records currently indexed for lookup_blob().
  std::uint64_t blob_entry_count() const;
  /// Current size of the on-disk log in bytes: flushes buffered appends
  /// first so the number matches what a restart would read.  0 in
  /// memory-only mode or when the file does not exist yet.
  std::uint64_t log_size_bytes() const;

 private:
  void append_record(std::uint8_t type, const Key128& key,
                     std::string_view payload);

  std::string path_;
  mutable std::mutex mutex_;
  /// Append stream; lazily opened (created with a fresh header when the
  /// file is missing or version-mismatched).  Owned via FILE* for exact
  /// control of flush/close; guarded by mutex_.
  std::FILE* out_ = nullptr;
  bool rewrite_on_open_ = false;  ///< version mismatch: truncate on append
  /// load() stopped at a torn record here: the first append cuts the file
  /// back to this offset, the end of the last whole record.
  std::optional<std::uint64_t> cut_before_append_;
  std::unordered_set<Key128, Key128Hash> persisted_sched_;
  std::unordered_map<Key128, std::string, Key128Hash> blobs_;
  PersistStats stats_;
  trace::Counter* corrupt_metric_;
  trace::Counter* appends_metric_;
};

}  // namespace isex::runtime
