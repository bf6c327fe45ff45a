#include "fuzz_targets.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "dfg/validate.hpp"
#include "isa/tac_parser.hpp"
#include "mem/cache_model.hpp"
#include "persist_reference.hpp"
#include "runtime/persistent_cache.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/machine_config.hpp"
#include "server/kernel_memo.hpp"
#include "server/protocol.hpp"
#include "tac_reference.hpp"
#include "util/assert.hpp"

namespace isex::fuzz {
namespace {

/// Inputs larger than any plausible basic block are truncated instead of
/// rejected: the prefix still exercises the parser, and the cap keeps a
/// single iteration fast enough for the 30s CI smoke run.
constexpr std::size_t kMaxInputBytes = std::size_t{1} << 16;

std::string_view as_source(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxInputBytes) size = kMaxInputBytes;
  return {reinterpret_cast<const char*>(data), size};
}

[[noreturn]] void contract_violation(const char* what,
                                     const ValidationReport* report) {
  std::fprintf(stderr, "fuzz contract violation: %s\n", what);
  if (report != nullptr)
    std::fputs(report->to_string().c_str(), stderr);
  std::abort();
}

}  // namespace

int run_tac_parser_input(const std::uint8_t* data, std::size_t size) {
  const std::string_view source = as_source(data, size);

  // Strict boundary: never throws, and the two outcomes are airtight —
  // either a block whose graph validates, or a coded, located Error.
  const Expected<isa::ParsedBlock> checked = isa::parse_tac_checked(source);
  if (checked.has_value()) {
    const isa::ParsedBlock& block = checked.value();
    if (!block.graph.is_acyclic())
      contract_violation("parser accepted input but produced a cyclic DFG",
                         nullptr);
    const ValidationReport report = dfg::validate(block.graph);
    if (!report.ok())
      contract_violation("parser-accepted graph failed dfg::validate",
                         &report);
    ISEX_ASSERT_MSG(block.statements.size() <= block.graph.num_nodes(),
                    "more statements than DFG nodes");
  } else {
    const Error& e = checked.error();
    ISEX_ASSERT_MSG(e.code() != ErrorCode::kOk,
                    "rejection without an error code");
    ISEX_ASSERT_MSG(e.loc().line >= 0, "negative source line in diagnostic");
    ISEX_ASSERT_MSG(!e.message().empty(), "rejection without a message");
  }

  // Permissive boundary: the only exception type that may escape is
  // ParseError; anything else (bad_alloc aside) is a harness catch.
  const Expected<isa::ParsedBlock> permissive = testing::parse_tac_caught(source);
  if (permissive.has_value() && !permissive->graph.is_acyclic())
    contract_violation("permissive parser produced a cyclic DFG", nullptr);

  // Both outcomes agree with the reference parser, to the error message
  // and to every node and statement.
  const std::string strict_diff =
      testing::diff_parses(checked, testing::reference_parse_tac(source));
  if (!strict_diff.empty())
    contract_violation(("strict parse disagrees with the reference: " +
                        strict_diff).c_str(),
                       nullptr);
  const std::string permissive_diff = testing::diff_parses(
      permissive,
      testing::reference_parse_tac(source, testing::ref_permissive_options()));
  if (!permissive_diff.empty())
    contract_violation(("parse_tac disagrees with the reference: " +
                        permissive_diff).c_str(),
                       nullptr);
  return 0;
}

int run_roundtrip_input(const std::uint8_t* data, std::size_t size) {
  const std::string_view source = as_source(data, size);
  const Expected<isa::ParsedBlock> checked = isa::parse_tac_checked(source);
  if (!checked.has_value()) return 0;  // rejected inputs go no further

  const dfg::Graph& graph = checked.value().graph;
  const ValidationReport report = dfg::validate(graph);
  if (!report.ok())
    contract_violation("parser-accepted graph failed dfg::validate", &report);

  const auto n = graph.num_nodes();
  if (n == 0 || n > 512) return 0;  // strict parse rejects empty; cap cost

  // Validated-accepted graphs must schedule without UB on both ends of the
  // paper's machine sweep, and the schedule must be structurally sound.
  const sched::MachineConfig machines[] = {
      sched::MachineConfig::make(2, {4, 2}),
      sched::MachineConfig::make(4, {10, 5}),
  };
  for (const sched::MachineConfig& machine : machines) {
    const sched::ListScheduler scheduler(machine);
    const sched::Schedule schedule = scheduler.run(graph);
    ISEX_ASSERT_MSG(schedule.slot.size() == n, "schedule lost nodes");
    ISEX_ASSERT_MSG(schedule.cycles >= 1, "non-empty block in zero cycles");
    const int floor_cycles = static_cast<int>(
        (n + static_cast<std::size_t>(machine.issue_width) - 1) /
        static_cast<std::size_t>(machine.issue_width));
    ISEX_ASSERT_MSG(schedule.cycles >= floor_cycles,
                    "makespan below the issue-width bound");
    for (dfg::NodeId v = 0; v < n; ++v) {
      ISEX_ASSERT_MSG(
          schedule.slot[v] >= 0 && schedule.slot[v] < schedule.cycles,
          "node placed outside the makespan");
      // Parser graphs carry only unit-latency PISA ops: every consumer
      // must issue strictly after its producer.
      for (const dfg::NodeId s : graph.succs(v))
        ISEX_ASSERT_MSG(schedule.slot[s] > schedule.slot[v],
                        "schedule violates a dependence");
    }
  }
  return 0;
}

int run_cache_config_input(const std::uint8_t* data, std::size_t size) {
  // Specs are one short line; a longer prefix still exercises the parser.
  constexpr std::size_t kMaxSpecBytes = 4096;
  if (size > kMaxSpecBytes) size = kMaxSpecBytes;
  const std::string_view spec{reinterpret_cast<const char*>(data), size};

  const Expected<mem::CacheConfig> parsed = mem::parse_cache_config(spec);
  if (!parsed.has_value()) {
    const Error& e = parsed.error();
    const auto code = static_cast<int>(e.code());
    ISEX_ASSERT_MSG(code >= 701 && code <= 704,
                    "cache-config rejection outside the E07xx block");
    ISEX_ASSERT_MSG(!e.message().empty(), "rejection without a message");
    return 0;
  }

  // Accepted configs must validate cleanly (warnings allowed) ...
  const ValidationReport report = mem::validate(*parsed);
  if (!report.ok())
    contract_violation("parser-accepted cache config failed validate",
                       &report);

  // ... round-trip through the canonical label with an identical
  // fingerprint ...
  const Expected<mem::CacheConfig> again =
      mem::parse_cache_config(parsed->label());
  ISEX_ASSERT_MSG(again.has_value(), "canonical label failed to re-parse");
  ISEX_ASSERT_MSG(*again == *parsed, "label round-trip changed the config");
  ISEX_ASSERT_MSG(mem::fingerprint(*again, 1) == mem::fingerprint(*parsed, 1),
                  "label round-trip changed the fingerprint");

  // ... and drive a simulation without UB.  A handful of accesses spanning
  // both levels' set ranges; latencies must be one of the three configured
  // levels.
  mem::CacheModel model(*parsed);
  for (const std::uint64_t address :
       {std::uint64_t{0}, std::uint64_t{0x1f}, std::uint64_t{4096},
        std::uint64_t{1} << 20, std::uint64_t{0}}) {
    const int latency = model.access(address, 4);
    ISEX_ASSERT_MSG(latency == parsed->l1.hit_latency ||
                        latency == parsed->l2.hit_latency ||
                        latency == parsed->mem_latency,
                    "access latency matches no configured level");
  }
  ISEX_ASSERT_MSG(model.stats().accesses >= 5, "simulation lost accesses");
  return 0;
}

int run_protocol_input(const std::uint8_t* data, std::size_t size) {
  const std::string line(as_source(data, size));
  const Expected<server::JobRequest> request = server::parse_job_request(line);
  if (!request.has_value()) {
    const Error& e = request.error();
    const auto code = static_cast<int>(e.code());
    ISEX_ASSERT_MSG(e.code() == ErrorCode::kServerProtocol ||
                        (code >= 701 && code <= 704),
                    "request rejection outside E0601 and the E07xx block");
    ISEX_ASSERT_MSG(!e.message().empty(), "rejection without a message");
    return 0;
  }

  // Admission must not depend on whether the memo answered it.  Each
  // kernel gets a fresh memo: a portfolio may list one text twice.
  const auto admit_twice = [&](const std::string& text) {
    server::KernelMemo memo;
    const Expected<server::KernelMemo::Admission> cold = memo.admit(text);
    const Expected<server::KernelMemo::Admission> warm = memo.admit(text);
    ISEX_ASSERT_MSG(cold.has_value() == warm.has_value(),
                    "the memo changed whether a kernel is admitted");
    if (!cold.has_value()) {
      ISEX_ASSERT_MSG(cold.error().code() == warm.error().code() &&
                          cold.error().message() == warm.error().message(),
                      "an invalid kernel's error changed on resubmission");
      return;
    }
    ISEX_ASSERT_MSG(cold->graph.has_value(),
                    "a parsed admission lost its graph");
    ISEX_ASSERT_MSG(warm->graph.has_value() ==
                        (text.size() > server::KernelMemo::kMaxKernelBytes),
                    "a storable kernel was not answered from the memo");
    ISEX_ASSERT_MSG(warm->digest == cold->digest &&
                        runtime::graph_digest(*cold->graph) == cold->digest,
                    "the memo's digest differs from the parsed graph's");
    ISEX_ASSERT_MSG(server::job_signature(warm->digest, *request) ==
                        server::job_signature(*cold->graph, *request),
                    "digest- and graph-keyed job signatures differ");
  };
  if (request->is_portfolio()) {
    for (const server::PortfolioProgramSpec& program : request->programs)
      admit_twice(program.kernel);
  } else {
    admit_twice(request->kernel);
  }
  return 0;
}

int run_persist_log_input(const std::uint8_t* data, std::size_t size) {
  // A megabyte holds tens of thousands of records, several load windows.
  constexpr std::size_t kMaxLogBytes = std::size_t{1} << 20;
  if (size > kMaxLogBytes) size = kMaxLogBytes;
  // Room for every record a capped input can hold, so nothing is evicted.
  constexpr std::size_t kCacheEntries = kMaxLogBytes / 29 + 2;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("isex_fuzz_persist_" + std::to_string(::getpid()) + ".log"))
          .string();
  {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ISEX_ASSERT_MSG(out != nullptr, "cannot write the scratch log");
    if (size > 0) std::fwrite(data, 1, size, out);
    std::fclose(out);
  }

  runtime::EvalCache want_warm(kCacheEntries, 1);
  const testing::ReferenceLoad want = testing::reference_load(path, &want_warm);
  const runtime::Key128 sched_key{0x5eed5eed5eed5eedULL, size};
  const runtime::Key128 blob_key{0xb10bb10bb10bb10bULL, size};
  const std::string blob = "appended after load";
  std::uint64_t first_corrupt = 0;
  {
    runtime::EvalCache warmed(kCacheEntries, 1);
    runtime::PersistentEvalCache cache(path);
    const runtime::PersistLoadReport got = cache.load(&warmed);
    const std::string diff =
        testing::diff_against_reference(got, cache, warmed, want, want_warm);
    if (!diff.empty())
      contract_violation(("load differs from the serial reference: " + diff)
                             .c_str(),
                         &got.report);
    first_corrupt = got.corrupt_skipped;
    cache.put_schedule_eval(sched_key, 7);
    cache.put_blob(blob_key, blob);
    cache.flush();
  }

  // Load -> append -> load: nothing the first load kept is lost, and the
  // appended records come back.  Only a torn tail, which the append cut
  // off, leaves the corrupt count.
  runtime::EvalCache rewarmed(kCacheEntries, 1);
  runtime::PersistentEvalCache again(path);
  const runtime::PersistLoadReport second = again.load(&rewarmed);
  const bool sched_new = want.schedule_keys.count(sched_key) == 0;
  const bool blob_new = want.blobs.count(blob_key) == 0;
  ISEX_ASSERT_MSG(!second.version_mismatch, "an append left a foreign header");
  ISEX_ASSERT_MSG(second.schedule_entries ==
                      want.report.schedule_entries + (sched_new ? 1 : 0),
                  "schedule records lost across load -> append -> load");
  ISEX_ASSERT_MSG(second.blob_entries == want.report.blob_entries + 1,
                  "blob records lost across load -> append -> load");
  ISEX_ASSERT_MSG(second.corrupt_skipped <= first_corrupt &&
                      second.corrupt_skipped + 1 >= first_corrupt,
                  "an append changed the corrupt records before it");
  for (const auto& [key, value] : want.schedule)
    ISEX_ASSERT_MSG(rewarmed.lookup(key) == want_warm.lookup(key),
                    "a kept schedule record changed value");
  ISEX_ASSERT_MSG(rewarmed.lookup(sched_key) ==
                      (sched_new ? std::optional<int>(7)
                                 : want_warm.lookup(sched_key)),
                  "the appended schedule record did not come back");
  for (const auto& [key, payload] : want.blobs)
    if (key != blob_key)
      ISEX_ASSERT_MSG(again.lookup_blob(key) == payload,
                      "a kept blob changed or vanished");
  ISEX_ASSERT_MSG(again.lookup_blob(blob_key) == blob,
                  "the appended blob did not come back");
  ISEX_ASSERT_MSG(
      again.schedule_entry_count() ==
              want.schedule_keys.size() + (sched_new ? 1 : 0) &&
          again.blob_entry_count() == want.blobs.size() + (blob_new ? 1 : 0),
      "the reloaded index holds keys no load or append wrote");
  std::remove(path.c_str());
  return 0;
}

}  // namespace isex::fuzz
