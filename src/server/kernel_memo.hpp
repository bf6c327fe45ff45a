// Kernel admission for isex_serve (docs/SERVER.md, "Admission path").
//
// Before a job can be looked up in the result cache, each of its kernels
// must be parsed (isa::parse_tac_checked), validated (dfg::validate) and
// digested (runtime::graph_digest): the result-cache key is a function of
// that digest.  Clients re-submit the same kernel text under many machine
// and seed settings, so KernelMemo remembers, per exact text, the digest
// admission produced; a text it has seen answers with no parse at all.
//
// Exactness: entries are keyed by the full text and found by string
// equality, so the memo adds no hash-collision exposure of its own.  A text
// that differs in any byte (whitespace, a comment) is a memo miss, parsed
// afresh, and reaches the same graph digest by the parser's own rules.
// Only kernels that parsed and validated are stored: a rejected kernel gets
// its coded error on every submission.
//
// Bounds: kMaxEntries texts, kMaxBytes of text in all, and no text longer
// than kMaxKernelBytes (a longer one is admitted, just never stored).  When
// an insertion would exceed a bound the memo is cleared first, so a memo
// never holds more than its bounds, and an overflowing stream of distinct
// kernels costs the parses it would have cost without a memo.
//
// Thread safety: every member may be called concurrently; the map is
// guarded by one mutex that is never held across a parse.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "dfg/graph.hpp"
#include "runtime/hash.hpp"
#include "util/error.hpp"

namespace isex::server {

class KernelMemo {
 public:
  /// Most texts held at once.
  static constexpr std::size_t kMaxEntries = 1024;
  /// Most text bytes held at once, summed over entries.
  static constexpr std::size_t kMaxBytes = std::size_t{4} << 20;
  /// Longest text ever stored.
  static constexpr std::size_t kMaxKernelBytes = std::size_t{64} << 10;

  /// One admitted kernel.
  struct Admission {
    runtime::Key128 digest;
    /// The validated graph when this admission parsed the text (a memo
    /// miss); empty when the memo answered.
    std::optional<dfg::Graph> graph;
  };

  struct Stats {
    std::uint64_t hits = 0;    ///< admissions answered from the memo
    std::uint64_t misses = 0;  ///< admissions that parsed (errors included)
    /// TAC parses in all: one per miss, plus one per graph() call on an
    /// admission the memo answered.
    std::uint64_t parses = 0;
    std::size_t entries = 0;  ///< texts held now
    std::size_t bytes = 0;    ///< text bytes held now
  };

  /// Admits one kernel text: its graph digest from the memo when the memo
  /// holds this exact text, otherwise from parse → validate → digest, with
  /// the digest stored when the kernel is valid.  Returns the parse error or
  /// the first validation error of an invalid kernel.
  Expected<Admission> admit(const std::string& text);

  /// The graph of an admitted kernel, for the miss path: the graph kept by
  /// admission (moved out), or, when the memo answered, `text` parsed once
  /// now.  `admission` must come from admit(text).
  Expected<dfg::Graph> graph(const std::string& text, Admission& admission);

  Stats stats() const;

 private:
  /// parse_tac_checked + dfg::validate; counts one parse.
  Expected<dfg::Graph> parse(const std::string& text);
  void insert(const std::string& text, const runtime::Key128& digest);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, runtime::Key128> digests_;
  std::size_t bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> parses_{0};
};

}  // namespace isex::server
