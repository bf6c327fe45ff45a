#include "runtime/persistent_cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <vector>

#include "trace/metrics.hpp"

namespace isex::runtime {
namespace {

// Layout (all integers little-endian fixed-width, written byte-by-byte so
// the file is identical on any host):
//
//   header:  8-byte magic "ISEXEVC\n" | u32 version | u32 reserved (0)
//   record:  u8 type | u32 payload_len | u64 key.lo | u64 key.hi
//            | payload_len bytes | u64 checksum
//
// type 1 = schedule-eval (payload: u32 cycle count), type 2 = blob.
constexpr char kMagic[8] = {'I', 'S', 'E', 'X', 'E', 'V', 'C', '\n'};
constexpr std::uint8_t kTypeScheduleEval = 1;
constexpr std::uint8_t kTypeBlob = 2;
/// Upper bound on one payload; a length beyond this is treated as log
/// corruption (stop scanning) rather than an allocation request.
constexpr std::uint32_t kMaxPayload = 64u << 20;
constexpr std::uint64_t kChecksumSeed = 0x7c159e3779b97f4aULL;
constexpr std::size_t kHeaderBytes = 16;
/// u8 type + u32 len + 2x u64 key.
constexpr std::size_t kPrefixBytes = 21;
constexpr std::size_t kChecksumBytes = 8;
/// load() frames, verifies and applies this many records at a time, so its
/// per-record index stays bounded however long the log is.
constexpr std::size_t kWindowRecords = 4096;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t record_checksum(std::uint8_t type, const Key128& key,
                              std::string_view payload) {
  Hash64 h(kChecksumSeed);
  h.mix(type);
  h.mix(payload.size());
  h.mix(key.lo);
  h.mix(key.hi);
  for (const char c : payload)
    h.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  return h.value();
}

/// One record whose framing is intact: it starts at `pos`, and its payload
/// and checksum lie inside the file.
struct Frame {
  std::size_t pos = 0;
  std::uint32_t len = 0;
  bool checksum_ok = false;
};

/// record_checksum of the framed record at `rec`, with its payload mixes
/// left to the caller: type, length and key only.
Hash64 checksum_prefix(const unsigned char* rec, std::uint32_t len) {
  Hash64 h(kChecksumSeed);
  h.mix(rec[0]);
  h.mix(len);
  h.mix(get_u64(rec + 5));
  h.mix(get_u64(rec + 13));
  return h;
}

/// Verifies four records in lockstep.  Each lane performs exactly
/// record_checksum's mixes; the four chains are independent, so their
/// multiply latencies overlap instead of running back to back.  The
/// shortest payload's length is the common prefix hashed interleaved;
/// each tail is finished alone.
void verify_lanes(const unsigned char* bytes, Frame* const (&f)[4]) {
  Hash64 h[4] = {checksum_prefix(bytes + f[0]->pos, f[0]->len),
                 checksum_prefix(bytes + f[1]->pos, f[1]->len),
                 checksum_prefix(bytes + f[2]->pos, f[2]->len),
                 checksum_prefix(bytes + f[3]->pos, f[3]->len)};
  const unsigned char* p[4];
  std::uint32_t common = f[0]->len;
  for (int l = 0; l < 4; ++l) {
    p[l] = bytes + f[l]->pos + kPrefixBytes;
    common = std::min(common, f[l]->len);
  }
  for (std::uint32_t i = 0; i < common; ++i) {
    h[0].mix(p[0][i]);
    h[1].mix(p[1][i]);
    h[2].mix(p[2][i]);
    h[3].mix(p[3][i]);
  }
  for (int l = 0; l < 4; ++l) {
    for (std::uint32_t i = common; i < f[l]->len; ++i) h[l].mix(p[l][i]);
    f[l]->checksum_ok = h[l].value() == get_u64(p[l] + f[l]->len);
  }
}

/// Sets checksum_ok on every frame.  Records are taken four at a time in
/// order of payload length, so the lanes' common prefix covers nearly all
/// of each payload; the last one to three go through record_checksum.
void verify(const unsigned char* bytes, std::vector<Frame>& frames,
            std::vector<std::uint64_t>& by_length) {
  by_length.clear();
  for (std::size_t i = 0; i < frames.size(); ++i)
    by_length.push_back(std::uint64_t{frames[i].len} << 32 | i);
  std::sort(by_length.begin(), by_length.end());
  const auto frame_at = [&](std::size_t k) {
    return &frames[by_length[k] & 0xffffffffu];
  };
  std::size_t k = 0;
  for (; k + 4 <= by_length.size(); k += 4) {
    Frame* const group[4] = {frame_at(k), frame_at(k + 1), frame_at(k + 2),
                             frame_at(k + 3)};
    verify_lanes(bytes, group);
  }
  for (; k < by_length.size(); ++k) {
    Frame& f = *frame_at(k);
    const unsigned char* rec = bytes + f.pos;
    const Key128 key{get_u64(rec + 5), get_u64(rec + 13)};
    const std::string_view payload(
        reinterpret_cast<const char*>(rec + kPrefixBytes), f.len);
    f.checksum_ok = record_checksum(rec[0], key, payload) ==
                    get_u64(rec + kPrefixBytes + f.len);
  }
}

}  // namespace

PersistentEvalCache::PersistentEvalCache(std::string path)
    : path_(std::move(path)),
      corrupt_metric_(&trace::MetricsRegistry::global().counter(
          "isex_persist_corrupt_records_total")),
      appends_metric_(&trace::MetricsRegistry::global().counter(
          "isex_persist_appends_total")) {}

PersistentEvalCache::~PersistentEvalCache() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_ != nullptr) std::fclose(out_);
}

PersistLoadReport PersistentEvalCache::load(EvalCache* warm_into) {
  PersistLoadReport result;
  std::lock_guard<std::mutex> lock(mutex_);
  if (path_.empty()) return result;  // memory-only mode

  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) {
    if (errno != ENOENT)
      result.report.add(ErrorCode::kPersistIo,
                        "cannot read cache file '" + path_ +
                            "': " + std::strerror(errno));
    return result;  // missing file: clean empty cache
  }

  // One read into a buffer sized from the file: cache logs are bounded by
  // what a service evaluates, and a single buffer makes truncation checks
  // trivial.  A path that is not a regular file reads as empty.
  std::error_code size_error;
  const std::uintmax_t file_size =
      std::filesystem::file_size(path_, size_error);
  std::string data(size_error ? 0 : file_size, '\0');
  data.resize(std::fread(data.data(), 1, data.size(), in));
  std::fclose(in);

  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  const std::size_t size = data.size();
  if (size < kHeaderBytes || std::memcmp(data.data(), kMagic, 8) != 0 ||
      get_u32(bytes + 8) != kFormatVersion) {
    result.version_mismatch = true;
    rewrite_on_open_ = true;
    result.report.add(ErrorCode::kPersistVersionMismatch,
                      "'" + path_ + "' is not a version-" +
                          std::to_string(kFormatVersion) +
                          " isex cache file; ignoring its contents",
                      {}, Severity::kWarning);
    return result;
  }

  // Three passes per window of records: frame them (stopping where the
  // serial scan stops: a short prefix, an oversized length, or a cut
  // payload or checksum), verify their checksums, then apply them in file
  // order.  A checksum mismatch keeps the framing, so the scan goes on.
  std::vector<Frame> frames;
  std::vector<std::uint64_t> by_length;
  frames.reserve(
      std::min(kWindowRecords, size / (kPrefixBytes + kChecksumBytes)));
  by_length.reserve(frames.capacity());
  std::size_t pos = kHeaderBytes;
  bool torn = false;
  while (pos < size && !torn) {
    frames.clear();
    while (frames.size() < kWindowRecords && pos < size) {
      if (size - pos < kPrefixBytes) {
        torn = true;  // truncated tail
        break;
      }
      const std::uint32_t len = get_u32(bytes + pos + 1);
      if (len > kMaxPayload ||
          size - pos - kPrefixBytes < len + kChecksumBytes) {
        torn = true;  // length field corrupt or payload+checksum cut off
        break;
      }
      frames.push_back(Frame{pos, len});
      pos += kPrefixBytes + len + kChecksumBytes;
    }

    verify(bytes, frames, by_length);

    for (const Frame& f : frames) {
      if (!f.checksum_ok) {
        ++result.corrupt_skipped;
        continue;
      }
      const unsigned char* rec = bytes + f.pos;
      const Key128 key{get_u64(rec + 5), get_u64(rec + 13)};
      const unsigned char* payload = rec + kPrefixBytes;
      if (rec[0] == kTypeScheduleEval && f.len == 4) {
        const auto value = static_cast<int>(get_u32(payload));
        persisted_sched_.insert(key);
        if (warm_into != nullptr) warm_into->insert(key, value);
        ++result.schedule_entries;
      } else if (rec[0] == kTypeBlob) {
        blobs_[key].assign(reinterpret_cast<const char*>(payload), f.len);
        ++result.blob_entries;
      } else {
        ++result.corrupt_skipped;  // unknown type or malformed payload size
      }
    }
  }
  if (torn) {
    ++result.corrupt_skipped;
    // Appending after the torn bytes would let the next load frame them
    // over the new records; the first append cuts them off instead.
    cut_before_append_ = pos;
  }

  if (result.corrupt_skipped > 0) {
    corrupt_metric_->inc(static_cast<double>(result.corrupt_skipped));
    result.report.add(ErrorCode::kPersistCorruptRecord,
                      "skipped " + std::to_string(result.corrupt_skipped) +
                          " corrupt record(s) in '" + path_ + "'",
                      {}, Severity::kWarning);
  }
  return result;
}

void PersistentEvalCache::append_record(std::uint8_t type, const Key128& key,
                                        std::string_view payload) {
  // Caller holds mutex_.
  if (path_.empty()) return;  // memory-only mode (no log configured)
  if (out_ == nullptr) {
    const bool fresh = rewrite_on_open_ || ([&] {
                         std::FILE* probe = std::fopen(path_.c_str(), "rb");
                         if (probe == nullptr) return true;
                         std::fclose(probe);
                         return false;
                       })();
    if (!fresh && cut_before_append_.has_value()) {
      std::error_code ec;
      std::filesystem::resize_file(path_, *cut_before_append_, ec);
      if (ec) {
        ++stats_.append_failures;
        return;
      }
    }
    out_ = std::fopen(path_.c_str(), fresh ? "wb" : "ab");
    if (out_ == nullptr) {
      ++stats_.append_failures;
      return;
    }
    rewrite_on_open_ = false;
    cut_before_append_.reset();
    if (fresh) {
      std::string header(kMagic, 8);
      put_u32(header, kFormatVersion);
      put_u32(header, 0);
      std::fwrite(header.data(), 1, header.size(), out_);
    }
  }
  std::string record;
  record.reserve(29 + payload.size());
  record.push_back(static_cast<char>(type));
  put_u32(record, static_cast<std::uint32_t>(payload.size()));
  put_u64(record, key.lo);
  put_u64(record, key.hi);
  record.append(payload);
  put_u64(record, record_checksum(type, key, payload));
  if (std::fwrite(record.data(), 1, record.size(), out_) != record.size()) {
    ++stats_.append_failures;
    return;
  }
  ++stats_.appends;
  appends_metric_->inc();
}

void PersistentEvalCache::put_schedule_eval(const Key128& key, int value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!persisted_sched_.insert(key).second) return;
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(value));
  append_record(kTypeScheduleEval, key, payload);
}

void PersistentEvalCache::put_blob(const Key128& key,
                                   std::string_view payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  blobs_[key] = std::string(payload);
  append_record(kTypeBlob, key, payload);
}

std::optional<std::string> PersistentEvalCache::lookup_blob(const Key128& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    ++stats_.blob_misses;
    return std::nullopt;
  }
  ++stats_.blob_hits;
  return it->second;
}

void PersistentEvalCache::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_ != nullptr) std::fflush(out_);
}

PersistStats PersistentEvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::uint64_t PersistentEvalCache::schedule_entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return persisted_sched_.size();
}

std::uint64_t PersistentEvalCache::blob_entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blobs_.size();
}

std::uint64_t PersistentEvalCache::log_size_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (path_.empty()) return 0;
  if (out_ != nullptr) std::fflush(out_);
  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) return 0;
  std::uint64_t size = 0;
  if (std::fseek(in, 0, SEEK_END) == 0) {
    const long pos = std::ftell(in);
    if (pos > 0) size = static_cast<std::uint64_t>(pos);
  }
  std::fclose(in);
  return size;
}

}  // namespace isex::runtime
