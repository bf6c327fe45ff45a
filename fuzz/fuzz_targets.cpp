#include "fuzz_targets.hpp"

#include <cstdio>
#include <string>
#include <string_view>

#include "dfg/validate.hpp"
#include "isa/tac_parser.hpp"
#include "mem/cache_model.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/machine_config.hpp"
#include "server/kernel_memo.hpp"
#include "server/protocol.hpp"
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
  try {
    const isa::ParsedBlock block = isa::parse_tac(source);
    if (!block.graph.is_acyclic())
      contract_violation("permissive parser produced a cyclic DFG", nullptr);
  } catch (const isa::ParseError&) {
    // expected rejection path
  }
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

}  // namespace isex::fuzz
