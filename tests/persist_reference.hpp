// Reference loader for the PersistentEvalCache log: the serial load loop,
// kept as the oracle the windowed, lane-verified
// runtime::PersistentEvalCache::load is checked against
// (PersistentCacheTest.LoadMatchesSerialReference, and fuzz_persist_log).
//
// One whole-file read, then one record at a time: frame it, recompute its
// checksum as one Hash64 chain over type, length, key and every payload
// byte, and apply it.  A short prefix, a length above the payload cap or a
// cut payload/checksum stops the scan; a checksum mismatch skips the record
// and resynchronizes at the next one.  The format constants are restated
// here on purpose: the reference must not share code with what it checks.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/eval_cache.hpp"
#include "runtime/hash.hpp"
#include "runtime/persistent_cache.hpp"
#include "util/error.hpp"

namespace isex::testing {

inline constexpr char kRefMagic[8] = {'I', 'S', 'E', 'X', 'E', 'V', 'C', '\n'};
inline constexpr std::uint8_t kRefTypeScheduleEval = 1;
inline constexpr std::uint8_t kRefTypeBlob = 2;
inline constexpr std::uint32_t kRefMaxPayload = 64u << 20;

inline std::uint32_t ref_get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t ref_get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline void ref_put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void ref_put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// The record checksum: a seeded Hash64 over type, length, key, and every
/// payload byte in order.
inline std::uint64_t reference_checksum(std::uint8_t type,
                                        const runtime::Key128& key,
                                        std::string_view payload) {
  runtime::Hash64 h(0x7c159e3779b97f4aULL);
  h.mix(type);
  h.mix(payload.size());
  h.mix(key.lo);
  h.mix(key.hi);
  for (const char c : payload)
    h.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  return h.value();
}

/// The 16-byte version-1 file header.
inline std::string reference_header() {
  std::string out(kRefMagic, 8);
  ref_put_u32(out, 1);
  ref_put_u32(out, 0);
  return out;
}

/// One encoded record.
inline std::string reference_record(std::uint8_t type,
                                    const runtime::Key128& key,
                                    std::string_view payload) {
  std::string out;
  out.push_back(static_cast<char>(type));
  ref_put_u32(out, static_cast<std::uint32_t>(payload.size()));
  ref_put_u64(out, key.lo);
  ref_put_u64(out, key.hi);
  out.append(payload);
  ref_put_u64(out, reference_checksum(type, key, payload));
  return out;
}

/// What the reference load produced.
struct ReferenceLoad {
  runtime::PersistLoadReport report;
  /// Accepted schedule-eval records in file order (duplicates kept).
  std::vector<std::pair<runtime::Key128, int>> schedule;
  std::unordered_set<runtime::Key128, runtime::Key128Hash> schedule_keys;
  std::unordered_map<runtime::Key128, std::string, runtime::Key128Hash> blobs;
};

/// Loads the log at `path` serially; schedule evaluations are inserted into
/// `warm_into` (skipped when null) in file order.
inline ReferenceLoad reference_load(const std::string& path,
                                    runtime::EvalCache* warm_into) {
  ReferenceLoad out;
  runtime::PersistLoadReport& result = out.report;
  if (path.empty()) return out;

  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    if (errno != ENOENT)
      result.report.add(ErrorCode::kPersistIo,
                        "cannot read cache file '" + path +
                            "': " + std::strerror(errno));
    return out;
  }
  std::string data;
  {
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) data.append(buf, n);
  }
  std::fclose(in);

  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  if (data.size() < 16 || std::memcmp(data.data(), kRefMagic, 8) != 0 ||
      ref_get_u32(bytes + 8) != runtime::PersistentEvalCache::kFormatVersion) {
    result.version_mismatch = true;
    result.report.add(
        ErrorCode::kPersistVersionMismatch,
        "'" + path + "' is not a version-" +
            std::to_string(runtime::PersistentEvalCache::kFormatVersion) +
            " isex cache file; ignoring its contents",
        {}, Severity::kWarning);
    return out;
  }

  std::size_t pos = 16;
  while (pos < data.size()) {
    if (data.size() - pos < 21) {
      ++result.corrupt_skipped;
      break;
    }
    const std::uint8_t type = bytes[pos];
    const std::uint32_t len = ref_get_u32(bytes + pos + 1);
    if (len > kRefMaxPayload || data.size() - pos - 21 < len + 8u) {
      ++result.corrupt_skipped;
      break;
    }
    const runtime::Key128 key{ref_get_u64(bytes + pos + 5),
                              ref_get_u64(bytes + pos + 13)};
    const std::string_view payload(data.data() + pos + 21, len);
    const std::uint64_t stored = ref_get_u64(bytes + pos + 21 + len);
    const std::size_t next = pos + 21 + len + 8;
    if (stored != reference_checksum(type, key, payload)) {
      ++result.corrupt_skipped;
      pos = next;
      continue;
    }
    if (type == kRefTypeScheduleEval && len == 4) {
      const auto value = static_cast<int>(
          ref_get_u32(reinterpret_cast<const unsigned char*>(payload.data())));
      out.schedule.emplace_back(key, value);
      out.schedule_keys.insert(key);
      if (warm_into != nullptr) warm_into->insert(key, value);
      ++result.schedule_entries;
    } else if (type == kRefTypeBlob) {
      out.blobs[key] = std::string(payload);
      ++result.blob_entries;
    } else {
      ++result.corrupt_skipped;
    }
    pos = next;
  }

  if (result.corrupt_skipped > 0)
    result.report.add(ErrorCode::kPersistCorruptRecord,
                      "skipped " + std::to_string(result.corrupt_skipped) +
                          " corrupt record(s) in '" + path + "'",
                      {}, Severity::kWarning);
  return out;
}

/// Compares a PersistentEvalCache load against the reference load of the
/// same file.  `warmed` and `want_warm` are the EvalCaches the two loads
/// warmed (both fresh, with room for every record).  Returns "" when they
/// agree, else the first difference.  Looks up every reference key in both
/// caches, so it counts hits and misses on all of them.
inline std::string diff_against_reference(
    const runtime::PersistLoadReport& got, runtime::PersistentEvalCache& cache,
    runtime::EvalCache& warmed, const ReferenceLoad& want,
    runtime::EvalCache& want_warm) {
  const runtime::PersistLoadReport& w = want.report;
  if (got.schedule_entries != w.schedule_entries)
    return "schedule_entries " + std::to_string(got.schedule_entries) +
           " != " + std::to_string(w.schedule_entries);
  if (got.blob_entries != w.blob_entries)
    return "blob_entries " + std::to_string(got.blob_entries) +
           " != " + std::to_string(w.blob_entries);
  if (got.corrupt_skipped != w.corrupt_skipped)
    return "corrupt_skipped " + std::to_string(got.corrupt_skipped) +
           " != " + std::to_string(w.corrupt_skipped);
  if (got.version_mismatch != w.version_mismatch) return "version_mismatch";
  if (got.report.to_string() != w.report.to_string())
    return "report '" + got.report.to_string() + "' != '" +
           w.report.to_string() + "'";
  if (cache.schedule_entry_count() != want.schedule_keys.size())
    return "schedule keys " + std::to_string(cache.schedule_entry_count()) +
           " != " + std::to_string(want.schedule_keys.size());
  if (warmed.stats().insertions != want_warm.stats().insertions)
    return "warm insertions differ";
  for (const auto& [key, value] : want.schedule)
    if (warmed.lookup(key) != want_warm.lookup(key))
      return "warmed value differs for a schedule key";
  if (cache.blob_entry_count() != want.blobs.size())
    return "blob keys " + std::to_string(cache.blob_entry_count()) +
           " != " + std::to_string(want.blobs.size());
  for (const auto& [key, payload] : want.blobs)
    if (cache.lookup_blob(key) != payload) return "blob payload differs";
  return "";
}

}  // namespace isex::testing
