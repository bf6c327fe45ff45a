// Structured error taxonomy for the input boundary.
//
// The design flow consumes kernels from outside the process (TAC files, CLI
// flags, machine configs), and the ROADMAP north-star is a service ingesting
// arbitrary user kernels — so malformed input must surface as *data*, not as
// an abort.  This module defines the one error currency every boundary
// speaks:
//
//   * ErrorCode   — stable numeric codes, grouped by subsystem (1xx parse,
//                   2xx DFG, 3xx program/flow, 4xx machine config, 5xx I/O,
//                   6xx server/persistence, 7xx cache-model config);
//   * Error       — code + severity + source location + human message;
//   * Expected<T> — value-or-Error return for fallible API boundaries
//                   (parse_tac_checked, run_design_flow_checked, ...);
//   * ValidationReport — ordered list of Errors a validator collected, so a
//                   caller can print *every* defect, not just the first.
//
// Internal invariants (programmer errors) stay on ISEX_ASSERT; this file is
// for defects an external input can provoke.  docs/ROBUSTNESS.md describes
// the taxonomy and how the validators and fuzzers exercise it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace isex {

/// Stable error codes.  Values are part of the tool's output contract
/// (diagnostics print "E0104"); add new codes at the end of a block, never
/// renumber.
enum class ErrorCode : std::uint16_t {
  kOk = 0,

  // 1xx — TAC parse errors (isa::parse_tac / parse_tac_checked).
  kParseSyntax = 101,           ///< malformed statement / unexpected token
  kParseUnknownMnemonic = 102,  ///< mnemonic not in the PISA subset
  kParseRedefinition = 103,     ///< variable defined twice (block is SSA)
  kParseUndefinedVariable = 104,  ///< live_out of a name never defined
  kParseImmediateRange = 105,   ///< literal outside the 32-bit datapath
  kParseEmptyInput = 106,       ///< no statements (strict mode)
  kParseSelfReference = 107,    ///< dest read in its own operands (cycle)
  kParseArity = 108,            ///< more register operands than the opcode has

  // 2xx — DFG validation (dfg::validate).
  kGraphCycle = 201,             ///< directed cycle; not a DAG
  kGraphDanglingOperand = 202,   ///< edge endpoint out of range
  kGraphAdjacencyCorrupt = 203,  ///< succs/preds lists disagree
  kGraphSelfEdge = 204,          ///< node feeds itself
  kGraphDuplicateEdge = 205,     ///< parallel edge stored twice
  kGraphArity = 206,             ///< operand count exceeds opcode arity
  kGraphOpcodeIllegal = 207,     ///< opcode outside the enum range
  kGraphLiveInInconsistent = 208,  ///< negative live-in value id
  kGraphIseInfoInvalid = 209,    ///< supernode latency/area/IO out of range
  kGraphResultlessProducer = 210,  ///< no-result node with consumers/live-out

  // 3xx — program / design-flow validation (flow::validate).
  kProgramEmpty = 301,         ///< no basic blocks to explore
  kProgramBlockInvalid = 302,  ///< a block's DFG failed dfg::validate
  kProgramExecCount = 303,     ///< block execution count of zero
  kFlowParamsInvalid = 304,    ///< repeats/coverage/constraints out of range

  // 4xx — machine-config validation (sched::validate).
  kConfigIssueWidth = 401,        ///< issue width < 1
  kConfigPorts = 402,             ///< register read/write ports < 1
  kConfigFuCounts = 403,          ///< negative FU count or no ALU
  kConfigOutsidePaperSweep = 404,  ///< warning: outside the 4/2–10/5 sweep

  // 5xx — I/O at the tool boundary.
  kIoFileNotFound = 501,  ///< input path unreadable
  kIoEmptyFile = 502,     ///< input file has no content
  kIoWriteFailed = 503,   ///< output sink unwritable

  // 6xx — server / persistence boundary (isex_serve, PersistentEvalCache).
  kServerProtocol = 601,      ///< malformed request line / missing field
  kServerQueueFull = 602,     ///< admission queue at capacity; retry later
  kServerShuttingDown = 603,  ///< daemon draining; no new jobs accepted
  kPersistVersionMismatch = 604,  ///< warning: cache file from another format
  kPersistCorruptRecord = 605,    ///< warning: log record skipped on load
  kPersistIo = 606,               ///< cache file unreadable / append failed

  // 7xx — cache-model config (mem::parse_cache_config / mem::validate).
  kCacheConfigSyntax = 701,  ///< malformed key=value spec / unknown key
  kCacheGeometry = 702,      ///< bad size/ways/line geometry (pow2 rules)
  kCacheLatency = 703,       ///< hit/miss latency out of range or inverted
  kCacheHierarchy = 704,     ///< L2 geometry incompatible with L1
};

/// Short stable identifier, e.g. "parse-immediate-range".
std::string_view error_code_name(ErrorCode code);

/// The code as diagnostics and server responses print it, e.g. "E0105".
std::string error_code_label(ErrorCode code);

enum class Severity : std::uint8_t {
  kWarning,  ///< suspicious but processable (e.g. ports outside the sweep)
  kError,    ///< input rejected
};

/// Location inside the offending source artifact.  line is 1-based; 0 means
/// "whole input" (e.g. an empty file or a graph-level defect).
struct SourceLoc {
  int line = 0;
  int column = 0;

  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

/// One structured diagnostic.
class Error {
 public:
  Error() = default;
  Error(ErrorCode code, std::string message, SourceLoc loc = {},
        Severity severity = Severity::kError)
      : code_(code),
        severity_(severity),
        loc_(loc),
        message_(std::move(message)) {}

  ErrorCode code() const { return code_; }
  Severity severity() const { return severity_; }
  SourceLoc loc() const { return loc_; }
  const std::string& message() const { return message_; }

  /// "error E0104: line 3: live_out of undefined variable 'ghost'".
  std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  Severity severity_ = Severity::kError;
  SourceLoc loc_{};
  std::string message_;
};

/// Thrown by legacy throwing wrappers (run_design_flow) when a checked
/// boundary rejected the input; carries the structured Error.
class ValidationException : public std::runtime_error {
 public:
  explicit ValidationException(Error error)
      : std::runtime_error(error.to_string()), error_(std::move(error)) {}
  const Error& error() const { return error_; }

 private:
  Error error_;
};

/// Value-or-Error result for fallible boundaries.  Deliberately minimal —
/// the two states are explicit, and accessing the wrong one asserts.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}            // NOLINT(google-explicit-constructor)
  Expected(Error error) : state_(std::move(error)) {}        // NOLINT(google-explicit-constructor)

  bool has_value() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return has_value(); }

  T& value() & { return std::get<T>(state_); }
  const T& value() const& { return std::get<T>(state_); }
  T&& value() && { return std::get<T>(std::move(state_)); }

  const Error& error() const { return std::get<Error>(state_); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Error> state_;
};

/// Everything a validator found, in discovery order.  `ok()` ignores
/// warnings: input with warnings is processable, input with errors is not.
class ValidationReport {
 public:
  void add(Error error) { issues_.push_back(std::move(error)); }
  void add(ErrorCode code, std::string message, SourceLoc loc = {},
           Severity severity = Severity::kError) {
    issues_.emplace_back(code, std::move(message), loc, severity);
  }
  void merge(ValidationReport other) {
    for (auto& e : other.issues_) issues_.push_back(std::move(e));
  }

  bool ok() const {
    for (const Error& e : issues_)
      if (e.severity() == Severity::kError) return false;
    return true;
  }
  std::size_t error_count() const {
    std::size_t n = 0;
    for (const Error& e : issues_)
      if (e.severity() == Severity::kError) ++n;
    return n;
  }
  bool empty() const { return issues_.empty(); }
  const std::vector<Error>& issues() const { return issues_; }

  /// First error-severity issue; ISEX_ASSERTs that one exists.
  const Error& first_error() const;

  /// One diagnostic per line.
  std::string to_string() const;

 private:
  std::vector<Error> issues_;
};

}  // namespace isex
