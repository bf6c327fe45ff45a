// isex — command-line driver for the library.
//
//   isex explore  kernel.tac [options]   explore ISEs and print them
//   isex schedule kernel.tac [options]   print the cycle-by-cycle schedule
//   isex dot      kernel.tac [options]   Graphviz DOT (ISEs highlighted)
//   isex eval     kernel.tac --set v=N   execute the block, print variables
//   isex verilog  kernel.tac [options]   emit Verilog ASFU modules for the
//                                        explored ISEs
//   isex listing  kernel.tac [options]   VLIW listing before/after ISEs
//   isex portfolio --manifest FILE       batched multi-program exploration:
//                                        one ISE set for all programs under
//                                        a shared area budget
//                                        (docs/PORTFOLIO.md)
//   isex sweep    kernel.tac [options]   cache-geometry sweep: explore the
//                                        kernel under an L1 size x ways x
//                                        line-size grid and report how the
//                                        ISE outcome shifts (docs/MEMORY.md)
//
// Common options:
//   --issue N          issue width (default 2)
//   --ports R/W        register-file read/write ports (default 6/3)
//   --repeats N        exploration repeats, best kept (default 5)
//   --seed S           RNG seed (default 1); results are bit-identical for
//                      the same seed at any --jobs value
//   --jobs N           exploration worker threads (default: ISEX_JOBS env
//                      var, else hardware concurrency)
//   --colonies K       ant colonies per exploration round (default 1 = the
//                      paper's serial loop); a search parameter like --seed —
//                      results depend on it, never on --jobs
//   --merge-interval N iterations between colony pheromone merges (default 8)
//   --max-latency N    pipestage cap on ISE latency in cycles, honoured by
//                      every exploring command and portfolio (default 0 = off)
//   --baseline         use the single-issue (legality-only) explorer
//   --set name=value   bind a live-in (eval only; repeatable; 0x.. ok)
//   --cache-config S   memory-hierarchy cost model (docs/MEMORY.md): derive
//                      each load/store latency from a two-level cache
//                      simulation instead of the fixed 1-cycle charge, e.g.
//                      l1_size=4k,l1_ways=2,l1_line=32,l2_size=64k,mem=40
//
// Every numeric flag takes one whole decimal token (--seed and --set also
// take 0x hex; a leading zero never means octal); anything else is a usage
// error (exit 2).
//
// Sweep options:
//   --sweep-out F      cache-geometry sweep JSON (default
//                      BENCH_cachesweep.json; render with
//                      tools/bench_report.py)
//
// Portfolio options:
//   --manifest FILE    manifest: one `path [weight] [name]` per line,
//                      `#` comments; paths resolve relative to the manifest
//   --area-budget A    shared ASFU area budget, µm² (default unlimited)
//   --max-ises N       shared distinct ISE type budget (default 32)
//
// Observability (docs/OBSERVABILITY.md):
//   --trace-out F        write a Chrome trace_event JSON (open in Perfetto /
//                        chrome://tracing); enables the tracer for the run
//   --metrics-out F      write a Prometheus text-format metrics snapshot
//   --convergence-out F  write the per-iteration ACO convergence curve (CSV)
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/mi_explorer.hpp"
#include "dfg/dot_export.hpp"
#include "dfg/validate.hpp"
#include "exec/evaluator.hpp"
#include "hwlib/hw_library.hpp"
#include "isa/tac_parser.hpp"
#include "flow/listing.hpp"
#include "flow/portfolio.hpp"
#include "mem/cache_model.hpp"
#include "mem/mem_stream.hpp"
#include "rtl/verilog.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/pool_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/machine_config.hpp"
#include "trace/json.hpp"
#include "trace/metrics.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"
#include "util/shutdown.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace isex;

/// The CLI's own concerns — command, paths, threads, bindings, outputs —
/// plus the run it describes, as the one flow::FlowConfig every command
/// reads.
struct CliOptions {
  std::string command;
  std::string input_path;
  int jobs = 0;  // 0 = ISEX_JOBS env var, else hardware concurrency
  std::string manifest;
  std::vector<std::pair<std::string, std::uint32_t>> bindings;
  std::string sweep_out = "BENCH_cachesweep.json";
  std::string trace_out;
  std::string metrics_out;
  std::string convergence_out;
  std::string pool_profile_out;
  flow::FlowConfig config = flow::front_end_defaults();
};

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: isex <explore|schedule|dot|eval|verilog|listing> <kernel.tac> "
               "[--issue N] [--ports R/W]\n"
               "       isex portfolio --manifest FILE [--area-budget A] "
               "[--max-ises N] [common options]\n"
               "       isex sweep <kernel.tac> [--cache-config S] "
               "[--sweep-out F] [common options]\n"
               "            [--repeats N] [--seed S] [--jobs N] "
               "[--colonies K] [--merge-interval N]\n"
               "            [--max-latency N] [--baseline] [--set v=N]\n"
               "            [--trace-out F] [--metrics-out F] "
               "[--convergence-out F]\n"
               "\n"
               "  Each number is one whole decimal token (--seed and --set "
               "also take 0x hex).\n"
               "  --seed S  RNG seed; same seed -> same result at any --jobs\n"
               "  --jobs N  exploration worker threads (default: ISEX_JOBS "
               "env var, else hardware concurrency)\n"
               "  --colonies K         ant colonies per round (search "
               "parameter like --seed; default 1 = the paper's serial loop)\n"
               "  --merge-interval N   iterations between colony pheromone "
               "merges (default 8; inert with --colonies 1)\n"
               "  --max-latency N      pipestage cap on ISE latency in cycles "
               "(default 0 = off); applies to every\n"
               "                       exploring command and to portfolio\n"
               "  --cache-config S     two-level cache cost model for "
               "load/store latencies (docs/MEMORY.md), e.g.\n"
               "                       l1_size=4k,l1_ways=2,l1_line=32,"
               "l2_size=64k,l2_ways=8,l2_line=64,mem=40\n"
               "  --sweep-out F        sweep command: geometry-sweep JSON "
               "(default BENCH_cachesweep.json)\n"
               "  --trace-out F        Chrome trace_event JSON "
               "(chrome://tracing / Perfetto)\n"
               "  --metrics-out F      Prometheus text metrics snapshot\n"
               "  --convergence-out F  per-iteration ACO convergence CSV\n"
               "  --pool-profile-out F worker occupancy + parallel-section "
               "profile (JSON)\n");
  std::exit(error != nullptr ? 2 : 0);
}

/// The whole of `text` as a T: decimal, or hex after "0x" when `hex` is
/// set.  A sign T cannot take, a leading '+' or zero-width token, trailing
/// characters and an out-of-range value all give nullopt.
template <typename T>
std::optional<T> parse_whole(std::string_view text, bool hex = false) {
  int base = 10;
  if (hex && text.size() > 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  T value{};
  const char* const end = text.data() + text.size();
  std::from_chars_result parsed;
  if constexpr (std::is_floating_point_v<T>)
    parsed = std::from_chars(text.data(), end, value);
  else
    parsed = std::from_chars(text.data(), end, value, base);
  if (parsed.ec != std::errc() || parsed.ptr != end) return std::nullopt;
  return value;
}

/// A live-in binding's value as the TAC literal grammar spells it: an
/// optional '-', then decimal or 0x hex, within the 32-bit datapath.
std::optional<std::uint32_t> parse_binding_value(std::string_view text) {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  const std::optional<std::uint32_t> magnitude =
      parse_whole<std::uint32_t>(text, /*hex=*/true);
  if (!magnitude || (negative && *magnitude > 0x80000000u))
    return std::nullopt;
  return negative ? 0u - *magnitude : *magnitude;
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  if (argc < 3) return std::nullopt;
  CliOptions opt;
  flow::FlowConfig& config = opt.config;
  int issue = config.machine.issue_width;
  isa::RegisterFileConfig ports = config.machine.reg_file;
  opt.command = argv[1];
  int first_option = 3;
  if (argv[2][0] == '-' && argv[2][1] == '-') {
    first_option = 2;  // e.g. `isex portfolio --manifest FILE`
  } else {
    opt.input_path = argv[2];
  }
  for (int i = first_option; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    // The flag's value as one whole decimal integer >= `min`.
    auto next_int = [&](int min) {
      const std::optional<int> value = parse_whole<int>(next_value());
      if (!value || *value < min)
        usage((arg + " must be an integer >= " + std::to_string(min)).c_str());
      return *value;
    };
    if (arg == "--issue") {
      issue = next_int(1);
    } else if (arg == "--ports") {
      const std::string_view v = next_value();
      const std::size_t slash = v.find('/');
      const std::optional<int> read =
          parse_whole<int>(v.substr(0, slash));
      const std::optional<int> write =
          slash == std::string_view::npos
              ? std::nullopt
              : parse_whole<int>(v.substr(slash + 1));
      if (!read || !write || *read < 1 || *write < 1)
        usage("--ports expects R/W, e.g. 6/3");
      ports = {*read, *write};
    } else if (arg == "--repeats") {
      config.repeats = next_int(1);
    } else if (arg == "--seed") {
      const std::optional<std::uint64_t> seed =
          parse_whole<std::uint64_t>(next_value(), /*hex=*/true);
      if (!seed) usage("--seed must be a decimal or 0x hex integer >= 0");
      config.seed = *seed;
    } else if (arg == "--jobs") {
      opt.jobs = next_int(1);
    } else if (arg == "--colonies") {
      config.params.colonies = next_int(1);
    } else if (arg == "--merge-interval") {
      config.params.merge_interval = next_int(1);
    } else if (arg == "--max-latency") {
      config.max_ise_latency_cycles = next_int(0);
    } else if (arg == "--baseline") {
      config.algorithm = flow::Algorithm::kSingleIssue;
    } else if (arg == "--manifest") {
      opt.manifest = next_value();
    } else if (arg == "--area-budget") {
      const std::optional<double> budget = parse_whole<double>(next_value());
      if (!budget || !std::isfinite(*budget) || *budget < 0.0)
        usage("--area-budget must be a finite number >= 0");
      config.constraints.area_budget = *budget;
    } else if (arg == "--max-ises") {
      config.constraints.max_ises = next_int(0);
    } else if (arg == "--cache-config") {
      Expected<mem::CacheConfig> parsed =
          mem::parse_cache_config(next_value());
      if (!parsed)
        usage(("--cache-config: " + parsed.error().to_string()).c_str());
      config.cache = *parsed;
    } else if (arg == "--sweep-out") {
      opt.sweep_out = next_value();
    } else if (arg == "--trace-out") {
      opt.trace_out = next_value();
    } else if (arg == "--metrics-out") {
      opt.metrics_out = next_value();
    } else if (arg == "--convergence-out") {
      opt.convergence_out = next_value();
    } else if (arg == "--pool-profile-out") {
      opt.pool_profile_out = next_value();
    } else if (arg == "--set") {
      const std::string binding = next_value();
      const std::size_t eq = binding.find('=');
      if (eq == std::string::npos) usage("--set expects name=value");
      const std::optional<std::uint32_t> value =
          parse_binding_value(std::string_view(binding).substr(eq + 1));
      if (!value)
        usage("--set value must be a 32-bit decimal or 0x hex integer");
      opt.bindings.emplace_back(binding.substr(0, eq), *value);
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  config.machine = sched::MachineConfig::make(issue, ports);
  return opt;
}

Expected<std::string> read_file(const std::string& path) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) {
    return Error(ErrorCode::kIoFileNotFound, "cannot open '" + path + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string content = ss.str();
  if (content.empty())
    return Error(ErrorCode::kIoEmptyFile, "'" + path + "' is empty");
  return content;
}

/// Prints every diagnostic; returns false when any is error-severity.
bool report_issues(const char* subject, const ValidationReport& report) {
  for (const Error& e : report.issues())
    std::fprintf(stderr, "isex: %s: %s\n", subject, e.to_string().c_str());
  return report.ok();
}

core::ExplorationResult explore(const CliOptions& opt,
                                const dfg::Graph& graph) {
  // The run's schedule-evaluation memo: its hit rate is the convergence
  // CSV's cache_hit_rate column and feeds the isex_schedule_cache_*
  // counters --metrics-out writes.
  runtime::EvalCache cache;
  flow::FlowConfig config = opt.config;
  config.params.eval_cache = &cache;
  config.params.collect_trace = !opt.convergence_out.empty();
  Rng rng(config.seed);
  core::ExplorationResult result;
  {
    const trace::StageTimer timer("exploration");
    result = flow::make_explorer(config, hw::HwLibrary::paper_default())
                 .explore_best_of(graph, config.repeats, rng);
  }
  if (!opt.convergence_out.empty()) {
    std::ofstream out(opt.convergence_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.convergence_out.c_str());
      std::exit(1);
    }
    // The curve of the best-of attempt that won (deterministic in --seed).
    trace::ExplorationTelemetry::write_csv(out, result.trace);
  }
  return result;
}

int cmd_explore(const CliOptions& opt, const isa::ParsedBlock& block) {
  const auto result = explore(opt, block.graph);
  const sched::MachineConfig& machine = opt.config.machine;
  std::printf("%zu operations, %zu edges; %d-issue %d/%d ports\n",
              block.graph.num_nodes(), block.graph.num_edges(),
              machine.issue_width, machine.reg_file.read_ports,
              machine.reg_file.write_ports);
  std::printf("cycles: %d without ISEs -> %d with ISEs (%.2f%% reduction)\n",
              result.base_cycles, result.final_cycles,
              result.base_cycles > 0
                  ? 100.0 * (result.base_cycles - result.final_cycles) /
                        result.base_cycles
                  : 0.0);
  TablePrinter table;
  table.set_header({"#", "ops", "latency", "area (um^2)", "IN", "OUT", "gain",
                    "members"});
  for (std::size_t i = 0; i < result.ises.size(); ++i) {
    const auto& ise = result.ises[i];
    std::string members;
    for (const auto& label : ise.member_labels) {
      if (!members.empty()) members += ' ';
      members += label;
    }
    table.add_row({std::to_string(i + 1),
                   std::to_string(ise.original_nodes.count()),
                   std::to_string(ise.eval.latency_cycles),
                   TablePrinter::fmt(ise.eval.area, 1),
                   std::to_string(ise.in_count), std::to_string(ise.out_count),
                   std::to_string(ise.gain_cycles), members});
  }
  std::ostringstream out;
  table.print(out);
  std::fputs(out.str().c_str(), stdout);
  if (result.ises.empty()) std::printf("(no profitable ISE found)\n");
  return 0;
}

/// Cache-model telemetry goes to stderr like the dedup diagnostics: the
/// simulation counters are deterministic, but stdout is reserved for each
/// command's own output contract.
void print_cache_stats(const mem::CacheConfig& config,
                       const mem::CacheStats& stats) {
  std::fprintf(stderr,
               "cache model %s: %llu accesses, %llu L1 hits (%.1f%%), "
               "%llu L2 hits, %llu memory; %llu nodes annotated\n",
               config.label().c_str(),
               static_cast<unsigned long long>(stats.accesses),
               static_cast<unsigned long long>(stats.l1_hits),
               100.0 * stats.l1_hit_rate(),
               static_cast<unsigned long long>(stats.l2_hits),
               static_cast<unsigned long long>(stats.mem_accesses),
               static_cast<unsigned long long>(stats.annotated_nodes));
}

int cmd_schedule(const CliOptions& opt, const isa::ParsedBlock& block) {
  const sched::MachineConfig& machine = opt.config.machine;
  const sched::ListScheduler scheduler(machine);
  const sched::Schedule schedule = scheduler.run(block.graph);
  std::printf("%s: %d cycles\n", machine.label().c_str(), schedule.cycles);
  for (int cycle = 0; cycle < schedule.cycles; ++cycle) {
    std::printf("C%-3d |", cycle + 1);
    for (dfg::NodeId v = 0; v < block.graph.num_nodes(); ++v) {
      if (schedule.slot[v] != cycle) continue;
      const dfg::Node& n = block.graph.node(v);
      std::printf(" %s", std::string(isa::mnemonic(n.opcode)).c_str());
      if (!n.label.empty()) std::printf(":%s", n.label.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_dot(const CliOptions& opt, const isa::ParsedBlock& block) {
  const auto result = explore(opt, block.graph);
  std::vector<dfg::NodeSet> highlights;
  for (const auto& ise : result.ises) highlights.push_back(ise.original_nodes);
  dfg::DotOptions options;
  options.graph_name = "kernel";
  options.highlights = highlights;
  dfg::write_dot(std::cout, block.graph, options);
  return 0;
}

int cmd_verilog(const CliOptions& opt, const isa::ParsedBlock& block) {
  const auto result = explore(opt, block.graph);
  if (result.ises.empty()) {
    std::fprintf(stderr, "no profitable ISE found; nothing to emit\n");
    return 1;
  }
  for (std::size_t i = 0; i < result.ises.size(); ++i) {
    rtl::VerilogOptions options;
    options.module_name = "ise" + std::to_string(i + 1);
    options.evaluation = &result.ises[i].eval;
    std::cout << rtl::emit_asfu(block, result.ises[i].original_nodes, options)
              << "\n";
  }
  return 0;
}

int cmd_listing(const CliOptions& opt, const isa::ParsedBlock& block) {
  const sched::MachineConfig& machine = opt.config.machine;
  const auto result = explore(opt, block.graph);

  // Re-apply the committed ISEs to obtain the rewritten block.
  core::RewrittenBlock rewritten(block.graph);
  for (const auto& ise : result.ises) rewritten.collapse(ise);

  std::cout << "--- without ISEs\n";
  flow::write_listing(std::cout, block.graph, machine);
  std::cout << "--- with " << result.ises.size() << " ISE(s)\n";
  flow::write_listing(std::cout, rewritten.graph(), machine);
  return 0;
}

/// Cache-geometry sweep (docs/MEMORY.md): re-explores the kernel under an
/// L1 capacity x associativity x line-size grid, holding the L2 and the
/// latency spine from --cache-config (or the defaults).  Each point is a
/// full annotate-then-explore run with the same seed, so rows differ only
/// through the memory model — the sweep shows where the ISE selection is
/// geometry-sensitive.  Results land in a BENCH_*.json for bench_report.py.
int cmd_sweep(const CliOptions& opt, const isa::ParsedBlock& block) {
  const mem::CacheConfig base =
      opt.config.cache ? *opt.config.cache : mem::CacheConfig{};
  const std::uint64_t size_axis[] = {1024, 4096, 16384};
  const int ways_axis[] = {1, 2, 4};
  const int line_axis[] = {16, 32, 64};

  struct Row {
    mem::CacheConfig config;
    mem::CacheStats stats;
    int base_cycles = 0;
    int final_cycles = 0;
    std::size_t num_ises = 0;
  };
  std::vector<Row> rows;
  for (const std::uint64_t size : size_axis) {
    for (const int ways : ways_axis) {
      for (const int line : line_axis) {
        mem::CacheConfig config = base;
        config.l1.size_bytes = size;
        config.l1.ways = ways;
        config.l1.line_bytes = line;
        if (!mem::validate(config).ok()) continue;  // degenerate grid point
        dfg::Graph graph = block.graph;
        const mem::CacheStats stats = mem::annotate_graph(graph, config);
        const core::ExplorationResult result = explore(opt, graph);
        rows.push_back(Row{config, stats, result.base_cycles,
                           result.final_cycles, result.ises.size()});
      }
    }
  }

  const sched::MachineConfig& machine = opt.config.machine;
  std::printf("cache-geometry sweep: %zu points; %s; seed %llu\n", rows.size(),
              machine.label().c_str(),
              static_cast<unsigned long long>(opt.config.seed));
  TablePrinter table;
  table.set_header({"l1 size", "ways", "line", "l1 hit", "base", "final",
                    "reduction", "ISEs"});
  for (const Row& row : rows) {
    table.add_row(
        {std::to_string(row.config.l1.size_bytes),
         std::to_string(row.config.l1.ways),
         std::to_string(row.config.l1.line_bytes),
         TablePrinter::fmt(100.0 * row.stats.l1_hit_rate(), 1) + "%",
         std::to_string(row.base_cycles), std::to_string(row.final_cycles),
         TablePrinter::fmt(row.base_cycles > 0
                               ? 100.0 * (row.base_cycles - row.final_cycles) /
                                     row.base_cycles
                               : 0.0,
                           2) +
             "%",
         std::to_string(row.num_ises)});
  }
  std::ostringstream text;
  table.print(text);
  std::fputs(text.str().c_str(), stdout);

  std::ofstream out(opt.sweep_out);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", opt.sweep_out.c_str());
    return 1;
  }
  std::string doc;
  trace::JsonWriter json(doc);
  json.begin_object().key("bench").string("cache_sweep")
      .key("kernel").string(opt.input_path)
      .key("machine").string(machine.label())
      .key("seed").integer(opt.config.seed)
      .key("repeats").integer(opt.config.repeats)
      .key("rows").begin_array();
  for (const Row& row : rows) {
    json.newline().begin_object()
        .key("l1_size").integer(row.config.l1.size_bytes)
        .key("l1_ways").integer(row.config.l1.ways)
        .key("l1_line").integer(row.config.l1.line_bytes)
        .key("accesses").integer(row.stats.accesses)
        .key("l1_hits").integer(row.stats.l1_hits)
        .key("l2_hits").integer(row.stats.l2_hits)
        .key("mem_accesses").integer(row.stats.mem_accesses)
        .key("l1_hit_rate").fixed(row.stats.l1_hit_rate(), 4)
        .key("base_cycles").integer(row.base_cycles)
        .key("final_cycles").integer(row.final_cycles)
        .key("ises").integer(row.num_ises).end_object();
  }
  json.newline().end_array().end_object().newline();
  out << doc;
  std::fprintf(stderr, "sweep: wrote %s (%zu rows)\n", opt.sweep_out.c_str(),
               rows.size());
  return 0;
}

/// One parsed manifest row: `path [weight] [name]`.
struct ManifestRow {
  std::string path;
  double weight = 1.0;
  std::string name;
};

/// Parses the portfolio manifest: one program per line, `#` comments and
/// blank lines skipped.  Relative paths resolve against the manifest's own
/// directory, so a manifest checked in next to its kernels stays portable.
Expected<std::vector<ManifestRow>> parse_manifest(const std::string& path,
                                                  const std::string& text) {
  std::string dir;
  const std::size_t slash = path.rfind('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);

  std::vector<ManifestRow> rows;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    ManifestRow row;
    if (!(fields >> row.path)) continue;  // blank / comment-only line
    std::string weight_token;
    if (fields >> weight_token) {
      const std::optional<double> weight = parse_whole<double>(weight_token);
      if (!weight || !std::isfinite(*weight) || !(*weight > 0.0))
        return Error(ErrorCode::kFlowParamsInvalid,
                     path + ":" + std::to_string(lineno) + ": weight '" +
                         weight_token + "' must be a finite number > 0");
      row.weight = *weight;
      fields >> row.name;
    }
    if (row.name.empty()) {
      // Default name: the path's basename without extension.
      std::string base = row.path;
      const std::size_t s = base.rfind('/');
      if (s != std::string::npos) base.erase(0, s + 1);
      const std::size_t dot = base.rfind('.');
      if (dot != std::string::npos && dot > 0) base.erase(dot);
      row.name = base;
    }
    if (row.path[0] != '/') row.path = dir + row.path;
    rows.push_back(std::move(row));
  }
  if (rows.empty())
    return Error(ErrorCode::kProgramEmpty,
                 "manifest '" + path + "' lists no programs");
  return rows;
}

int cmd_portfolio(const CliOptions& opt) {
  const std::string manifest_path =
      !opt.manifest.empty() ? opt.manifest : opt.input_path;
  if (manifest_path.empty())
    usage("portfolio needs --manifest FILE (or a manifest path argument)");
  Expected<std::string> manifest_text = read_file(manifest_path);
  if (!manifest_text) {
    std::fprintf(stderr, "isex: %s: %s\n", manifest_path.c_str(),
                 manifest_text.error().to_string().c_str());
    return 1;
  }
  Expected<std::vector<ManifestRow>> rows =
      parse_manifest(manifest_path, *manifest_text);
  if (!rows) {
    std::fprintf(stderr, "isex: %s\n", rows.error().to_string().c_str());
    return 1;
  }

  std::vector<flow::PortfolioEntry> entries;
  entries.reserve(rows->size());
  for (const ManifestRow& row : *rows) {
    Expected<std::string> source = read_file(row.path);
    if (!source) {
      std::fprintf(stderr, "isex: %s: %s\n", row.path.c_str(),
                   source.error().to_string().c_str());
      return 1;
    }
    Expected<isa::ParsedBlock> parsed = isa::parse_tac_checked(*source);
    if (!parsed) {
      std::fprintf(stderr, "isex: %s: %s\n", row.path.c_str(),
                   parsed.error().to_string().c_str());
      return 1;
    }
    if (!report_issues(row.path.c_str(), dfg::validate(parsed->graph)))
      return 1;
    flow::PortfolioEntry entry;
    entry.program.name = row.name;
    entry.program.blocks.push_back(
        flow::ProfiledBlock{"kernel", std::move(parsed->graph), 1});
    entry.weight = row.weight;
    entries.push_back(std::move(entry));
  }

  flow::PortfolioConfig config;
  config.base = opt.config;
  if (!report_issues("machine config", sched::validate(config.base.machine)))
    return 1;

  Expected<flow::PortfolioResult> result = flow::run_portfolio_flow_checked(
      entries, hw::HwLibrary::paper_default(), config);
  if (!result) {
    std::fprintf(stderr, "isex: %s\n", result.error().to_string().c_str());
    return 1;
  }

  const sched::MachineConfig& machine = config.base.machine;
  const flow::SelectionConstraints& shared = config.base.constraints;
  std::printf(
      "%zu programs; %d-issue %d/%d ports; shared budget: %s um^2, %d types\n",
      entries.size(), machine.issue_width, machine.reg_file.read_ports,
      machine.reg_file.write_ports,
      std::isfinite(shared.area_budget)
          ? TablePrinter::fmt(shared.area_budget, 1).c_str()
          : "unlimited",
      shared.max_ises);
  std::printf("batch: %llu jobs, %llu deduped\n",
              static_cast<unsigned long long>(result->total_jobs),
              static_cast<unsigned long long>(result->deduped_jobs));
  if (result->cache_modeled)
    print_cache_stats(*config.base.cache, result->cache_stats);
  // Hit/miss *counts* are timing-dependent (two workers can race to evaluate
  // the same key and both miss); stdout stays byte-identical at any --jobs,
  // so the cache telemetry goes to stderr like the other diagnostics.
  std::fprintf(
      stderr, "eval dedup hit-rate %.1f%% (%llu hits / %llu misses)\n",
      100.0 * result->eval_cache_stats.hit_rate(),
      static_cast<unsigned long long>(result->eval_cache_stats.hits),
      static_cast<unsigned long long>(result->eval_cache_stats.misses));
  if (result->isomorphic_hot_blocks > 0 || result->isomorphic_candidates > 0)
    std::printf(
        "isomorphic-but-renumbered: %llu hot blocks, %llu candidates "
        "(detected, not value-shared)\n",
        static_cast<unsigned long long>(result->isomorphic_hot_blocks),
        static_cast<unsigned long long>(result->isomorphic_candidates));

  TablePrinter programs;
  programs.set_header({"program", "weight", "base", "final", "reduction",
                       "ISEs", "weighted benefit"});
  for (const flow::PortfolioProgramResult& prog : result->programs) {
    programs.add_row({prog.name, TablePrinter::fmt(prog.weight, 2),
                      std::to_string(prog.base_time()),
                      std::to_string(prog.final_time()),
                      TablePrinter::fmt(100.0 * prog.reduction(), 2) + "%",
                      std::to_string(prog.selection.selected.size()),
                      TablePrinter::fmt(prog.weighted_benefit(), 1)});
  }
  std::ostringstream out;
  programs.print(out);
  std::fputs(out.str().c_str(), stdout);

  std::printf("selected %zu ISE(s), %d type(s), %s um^2 total\n",
              result->selection.selected.size(), result->num_ise_types(),
              TablePrinter::fmt(result->total_area(), 1).c_str());
  if (!result->selection.selected.empty()) {
    TablePrinter table;
    table.set_header({"#", "program", "type", "shared", "area (um^2)", "gain",
                      "weighted benefit"});
    for (std::size_t i = 0; i < result->selection.selected.size(); ++i) {
      const flow::PortfolioSelectedIse& sel = result->selection.selected[i];
      table.add_row({std::to_string(i + 1),
                     result->programs[sel.program_index].name,
                     std::to_string(sel.type_id),
                     sel.hardware_shared ? "yes" : "no",
                     TablePrinter::fmt(sel.entry.ise.eval.area, 1),
                     std::to_string(sel.entry.ise.gain_cycles),
                     TablePrinter::fmt(sel.weighted_benefit, 1)});
    }
    std::ostringstream ises;
    table.print(ises);
    std::fputs(ises.str().c_str(), stdout);
  } else {
    std::printf("(no profitable ISE selected)\n");
  }
  return 0;
}

int cmd_eval(const CliOptions& opt, const isa::ParsedBlock& block) {
  exec::Evaluator evaluator;
  for (const auto& [name, value] : opt.bindings) evaluator.set(name, value);
  try {
    evaluator.run(block);
  } catch (const exec::EvalError& e) {
    std::fprintf(stderr, "evaluation error: %s\n", e.what());
    std::fprintf(stderr, "hint: bind live-ins with --set name=value\n");
    return 1;
  }
  // Print live-out variables first, then the rest, in definition order.
  for (const bool live_pass : {true, false}) {
    for (const auto& stmt : block.statements) {
      if (stmt.dest.empty()) continue;
      const bool is_live = block.graph.live_out(stmt.node);
      if (is_live != live_pass) continue;
      std::printf("%s%-12s = 0x%08x (%u)\n", is_live ? "live-out " : "         ",
                  stmt.dest.c_str(), evaluator.get(stmt.dest),
                  evaluator.get(stmt.dest));
    }
  }
  return 0;
}

}  // namespace

/// Writes the --trace-out / --metrics-out sinks after the command ran.
void write_observability(const CliOptions& opt) {
  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.trace_out.c_str());
      std::exit(1);
    }
    trace::Tracer::global().write_chrome_trace(out);
  }
  if (!opt.metrics_out.empty()) {
    std::ofstream out(opt.metrics_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.metrics_out.c_str());
      std::exit(1);
    }
    trace::MetricsRegistry::global().write_prometheus(out);
  }
  if (!opt.pool_profile_out.empty()) {
    std::ofstream out(opt.pool_profile_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.pool_profile_out.c_str());
      std::exit(1);
    }
    runtime::collect_pool_profile(runtime::ThreadPool::default_pool())
        .write_json(out);
  }
}

int main(int argc, char** argv) {
  const std::optional<CliOptions> opt = parse_args(argc, argv);
  if (!opt) usage();

  // Size the shared exploration pool before any work touches it.  Results
  // are seed-deterministic regardless of the job count.
  if (opt->jobs > 0) runtime::ThreadPool::set_default_jobs(opt->jobs);
  if (!opt->trace_out.empty()) trace::Tracer::global().set_enabled(true);
  if (!opt->pool_profile_out.empty())
    runtime::ThreadPool::default_pool().set_profiling(true);

  // A Ctrl-C mid-exploration must not lose the observability sinks the user
  // asked for: flush whatever the tracer/registry have accumulated so far,
  // then exit with the conventional 128+signo.  (The convergence CSV only
  // exists once an exploration finishes, so an interrupt cannot save it.)
  if (!opt->trace_out.empty() || !opt->metrics_out.empty() ||
      !opt->pool_profile_out.empty()) {
    util::ShutdownRequest::instance().flush_and_exit_on_signal(
        [opt = *opt] { write_observability(opt); });
  }

  // The portfolio command reads a manifest of kernels, not one TAC file, so
  // it owns its whole input path.
  if (opt->command == "portfolio") {
    int rc;
    {
      const trace::ContextScope run_context(
          trace::TraceContext{trace::Tracer::global().enabled()
                                  ? trace::mint_trace_id()
                                  : 0,
                              /*span_id=*/0});
      const trace::Span command_span("isex:portfolio");
      rc = cmd_portfolio(*opt);
    }
    write_observability(*opt);
    return rc;
  }
  if (opt->input_path.empty()) usage("missing <kernel.tac> argument");

  // Input boundary: read → parse (strict) → validate, with structured
  // diagnostics at every step.  A kernel that fails here never reaches the
  // scheduler or the explorer (docs/ROBUSTNESS.md).
  Expected<std::string> source = read_file(opt->input_path);
  if (!source) {
    std::fprintf(stderr, "isex: %s: %s\n", opt->input_path.c_str(),
                 source.error().to_string().c_str());
    return 1;
  }
  Expected<isa::ParsedBlock> parsed = isa::parse_tac_checked(*source);
  if (!parsed) {
    std::fprintf(stderr, "isex: %s: %s\n", opt->input_path.c_str(),
                 parsed.error().to_string().c_str());
    return 1;
  }
  isa::ParsedBlock block = std::move(parsed).value();
  if (!report_issues(opt->input_path.c_str(), dfg::validate(block.graph)))
    return 1;
  // Machine-model diagnostics (warnings for configs outside the paper's
  // sweep; arg parsing already rejects non-positive widths/ports).
  if (!report_issues("machine config", sched::validate(opt->config.machine)))
    return 1;

  // Memory-hierarchy cost model: annotate the kernel's load/store latencies
  // once, up front, so every command downstream (schedule, explore, listing)
  // sees the same cache-derived costs.  The sweep command annotates per grid
  // point itself.
  const std::optional<mem::CacheConfig>& cache = opt->config.cache;
  if (cache && opt->command != "sweep") {
    flow::ProfiledProgram annotated;
    annotated.name = opt->input_path;
    annotated.blocks.push_back(
        flow::ProfiledBlock{"kernel", std::move(block.graph), 1});
    const mem::CacheStats stats = flow::annotate_program(annotated, *cache);
    block.graph = std::move(annotated.blocks[0].graph);
    print_cache_stats(*cache, stats);
  }

  int rc = -1;
  {
    // Root of this run's trace: the command span and everything beneath it
    // (stage spans, pool tasks) share one freshly minted trace id.
    const trace::ContextScope run_context(
        trace::TraceContext{trace::Tracer::global().enabled()
                                ? trace::mint_trace_id()
                                : 0,
                            /*span_id=*/0});
    const trace::Span command_span("isex:" + opt->command);
    if (opt->command == "explore") rc = cmd_explore(*opt, block);
    else if (opt->command == "schedule") rc = cmd_schedule(*opt, block);
    else if (opt->command == "dot") rc = cmd_dot(*opt, block);
    else if (opt->command == "eval") rc = cmd_eval(*opt, block);
    else if (opt->command == "verilog") rc = cmd_verilog(*opt, block);
    else if (opt->command == "listing") rc = cmd_listing(*opt, block);
    else if (opt->command == "sweep") rc = cmd_sweep(*opt, block);
  }
  if (rc < 0) usage(("unknown command '" + opt->command + "'").c_str());
  write_observability(*opt);
  return rc;
}
