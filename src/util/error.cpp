#include "util/error.hpp"

#include <cstdio>

#include "util/assert.hpp"

namespace isex {

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kParseSyntax: return "parse-syntax";
    case ErrorCode::kParseUnknownMnemonic: return "parse-unknown-mnemonic";
    case ErrorCode::kParseRedefinition: return "parse-redefinition";
    case ErrorCode::kParseUndefinedVariable: return "parse-undefined-variable";
    case ErrorCode::kParseImmediateRange: return "parse-immediate-range";
    case ErrorCode::kParseEmptyInput: return "parse-empty-input";
    case ErrorCode::kParseSelfReference: return "parse-self-reference";
    case ErrorCode::kParseArity: return "parse-arity";
    case ErrorCode::kGraphCycle: return "graph-cycle";
    case ErrorCode::kGraphDanglingOperand: return "graph-dangling-operand";
    case ErrorCode::kGraphAdjacencyCorrupt: return "graph-adjacency-corrupt";
    case ErrorCode::kGraphSelfEdge: return "graph-self-edge";
    case ErrorCode::kGraphDuplicateEdge: return "graph-duplicate-edge";
    case ErrorCode::kGraphArity: return "graph-arity";
    case ErrorCode::kGraphOpcodeIllegal: return "graph-opcode-illegal";
    case ErrorCode::kGraphLiveInInconsistent: return "graph-live-in-inconsistent";
    case ErrorCode::kGraphIseInfoInvalid: return "graph-ise-info-invalid";
    case ErrorCode::kGraphResultlessProducer: return "graph-resultless-producer";
    case ErrorCode::kProgramEmpty: return "program-empty";
    case ErrorCode::kProgramBlockInvalid: return "program-block-invalid";
    case ErrorCode::kProgramExecCount: return "program-exec-count";
    case ErrorCode::kFlowParamsInvalid: return "flow-params-invalid";
    case ErrorCode::kConfigIssueWidth: return "config-issue-width";
    case ErrorCode::kConfigPorts: return "config-ports";
    case ErrorCode::kConfigFuCounts: return "config-fu-counts";
    case ErrorCode::kConfigOutsidePaperSweep: return "config-outside-paper-sweep";
    case ErrorCode::kIoFileNotFound: return "io-file-not-found";
    case ErrorCode::kIoEmptyFile: return "io-empty-file";
    case ErrorCode::kIoWriteFailed: return "io-write-failed";
    case ErrorCode::kServerProtocol: return "server-protocol";
    case ErrorCode::kServerQueueFull: return "server-queue-full";
    case ErrorCode::kServerShuttingDown: return "server-shutting-down";
    case ErrorCode::kPersistVersionMismatch: return "persist-version-mismatch";
    case ErrorCode::kPersistCorruptRecord: return "persist-corrupt-record";
    case ErrorCode::kPersistIo: return "persist-io";
    case ErrorCode::kCacheConfigSyntax: return "cache-config-syntax";
    case ErrorCode::kCacheGeometry: return "cache-geometry";
    case ErrorCode::kCacheLatency: return "cache-latency";
    case ErrorCode::kCacheHierarchy: return "cache-hierarchy";
  }
  return "unknown";
}

std::string error_code_label(ErrorCode code) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "E%04u", static_cast<unsigned>(code));
  return buf;
}

std::string Error::to_string() const {
  std::string out =
      severity_ == Severity::kWarning ? "warning " : "error ";
  out += error_code_label(code_);
  out += " [";
  out += error_code_name(code_);
  out += "]: ";
  if (loc_.line > 0) {
    out += "line " + std::to_string(loc_.line) + ": ";
  }
  out += message_;
  return out;
}

const Error& ValidationReport::first_error() const {
  for (const Error& e : issues_)
    if (e.severity() == Severity::kError) return e;
  ISEX_ASSERT_MSG(false, "first_error() on a report with no errors");
  std::abort();  // unreachable; keeps the compiler satisfied
}

std::string ValidationReport::to_string() const {
  std::string out;
  for (const Error& e : issues_) {
    out += e.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace isex
