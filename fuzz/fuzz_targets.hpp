// Shared fuzz-harness entry points.
//
// The same functions drive every consumer, so a crash found by libFuzzer
// reproduces everywhere:
//   * fuzz_tac_parser / fuzz_roundtrip / fuzz_cache_config / fuzz_protocol /
//     fuzz_persist_log (libFuzzer builds, or the standalone replay driver
//     when the toolchain lacks -fsanitize=fuzzer);
//   * tests/test_fuzz_regressions.cpp, which replays fuzz/corpus/ and
//     fuzz/regressions/ as plain GoogleTest cases on every CI run.
//
// The TAC functions treat the byte buffer as one TAC source, the others as
// one cache-config spec, one job request line or one persistent cache log;
// each enforces the input-boundary contracts from docs/ROBUSTNESS.md with
// ISEX_ASSERT — any violation aborts, which is exactly the signal a fuzzer
// wants:
//   * run_tac_parser_input: parse_tac_checked never throws; accepted blocks
//     always pass dfg::validate; rejected inputs carry a structured code
//     and location; the permissive parse_tac throws nothing but ParseError;
//     both agree with the reference parser (tests/tac_reference.hpp) on
//     acceptance, the error, every node and every statement.
//   * run_roundtrip_input: every parser-accepted, validator-accepted graph
//     schedules on paper-sweep machines without UB — all nodes placed,
//     dependences respected, makespan within structural bounds.
#pragma once

#include <cstddef>
#include <cstdint>

namespace isex::fuzz {

/// Parse (strict + permissive), validate, and compare with the reference
/// parser; returns 0 (libFuzzer ABI).
int run_tac_parser_input(const std::uint8_t* data, std::size_t size);

/// Parse → validate → schedule round-trip; returns 0 (libFuzzer ABI).
int run_roundtrip_input(const std::uint8_t* data, std::size_t size);

/// Cache-config spec parser (mem::parse_cache_config): accepted configs
/// must validate, round-trip through label(), fingerprint stably, and drive
/// a CacheModel without UB; rejections must carry an E07xx code and a
/// message.  Returns 0 (libFuzzer ABI).
int run_cache_config_input(const std::uint8_t* data, std::size_t size);

/// One isex_serve request line (server::parse_job_request): rejections must
/// carry E0601 (or a cache-config spec's E07xx) and a message, and their
/// error response must be JSON (tests/json_checker.hpp).  Every accepted
/// line is itself JSON by that checker: the parser reads RFC 8259 and
/// nothing more.  When the line is valid UTF-8, every string of an accepted
/// request is too.  An accepted request's id, kernel and program names and
/// kernels, written into a new line by trace::JsonWriter, must parse back
/// to the same strings, and its response must be JSON.  Every kernel of an
/// accepted request is admitted twice through a fresh server::KernelMemo,
/// cold and then from the memo: both give the same digest, or the same
/// error code and message, and the digest-keyed job_signature equals the
/// graph-keyed one.  Returns 0 (libFuzzer ABI).
int run_protocol_input(const std::uint8_t* data, std::size_t size);

/// The bytes as an isex_serve persistent cache log
/// (runtime::PersistentEvalCache): the load never crashes and agrees with
/// the serial reference loader (tests/persist_reference.hpp) on the report,
/// the warmed EvalCache and the blob index; after one schedule record and
/// one blob are appended, the next load keeps every record the first kept,
/// plus the two.  Returns 0 (libFuzzer ABI).
int run_persist_log_input(const std::uint8_t* data, std::size_t size);

}  // namespace isex::fuzz
