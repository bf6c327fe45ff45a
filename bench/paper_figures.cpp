#include "paper_figures.hpp"

#include <cstdlib>
#include <ostream>
#include <utility>

#include "core/mi_explorer.hpp"
#include "flow/design_flow.hpp"
#include "hwlib/hw_library.hpp"
#include "isa/tac_parser.hpp"
#include "sched/list_scheduler.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

namespace isex::paper {
namespace {

using bench_suite::OptLevel;
using flow::Algorithm;

constexpr std::array<OptLevel, 2> kLevels = {OptLevel::kO0, OptLevel::kO3};
constexpr std::array<Algorithm, 2> kAlgorithms = {Algorithm::kMultiIssue,
                                                  Algorithm::kSingleIssue};

flow::FlowConfig flow_config(const sched::MachineConfig& machine,
                             Algorithm algorithm, int repeats,
                             std::uint64_t seed) {
  flow::FlowConfig config;
  config.machine = machine;
  config.algorithm = algorithm;
  config.repeats = repeats;
  config.seed = seed;
  return config;
}

Outcome outcome(const flow::FlowResult& result) {
  return {result.reduction(), result.total_area(), result.final_time()};
}

/// Both explorers over every paper machine and flavor, each suite point
/// explored once and replayed at every `constraints` entry.
std::vector<SweepRow> sweep(
    int repeats, std::uint64_t seed,
    const std::vector<flow::SelectionConstraints>& constraints) {
  std::vector<SweepRow> rows;
  for (const Algorithm algorithm : kAlgorithms) {
    for (const sched::MachineConfig& machine : paper_machines()) {
      for (const OptLevel level : kLevels) {
        const SuiteExploration suite(
            level, flow_config(machine, algorithm, repeats, seed));
        SweepRow row{algorithm, machine, level, {}};
        for (const flow::SelectionConstraints& point : constraints)
          row.reductions.push_back(suite.replay_suite(point).reduction);
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

void print_sweep(const std::vector<SweepRow>& rows,
                 std::vector<std::string> header, std::ostream& os) {
  TablePrinter table;
  header.insert(header.begin(), "config");
  table.set_header(std::move(header));
  for (const SweepRow& row : rows) {
    std::vector<std::string> cells = {label(row)};
    for (const double reduction : row.reductions)
      cells.push_back(TablePrinter::pct(reduction));
    table.add_row(std::move(cells));
  }
  table.print(os);
}

/// Seven benchmarks at O3 on fig_5_2_3_machine() under a 40k um^2 budget,
/// each through run_design_flow once per variant that `vary` sets up.
template <typename Vary>
std::vector<AblationRow> ablation(int repeats, std::uint64_t seed, Vary vary) {
  flow::FlowConfig base = flow_config(fig_5_2_3_machine(),
                                      Algorithm::kMultiIssue, repeats, seed);
  base.constraints.area_budget = 40000.0;
  const hw::HwLibrary library = hw::HwLibrary::paper_default();
  std::vector<AblationRow> rows;
  for (const bench_suite::Benchmark benchmark : bench_suite::all_benchmarks()) {
    const flow::ProfiledProgram program =
        bench_suite::make_program(benchmark, OptLevel::kO3);
    AblationRow row{benchmark, {}};
    for (std::size_t v = 0; v < row.variants.size(); ++v) {
      flow::FlowConfig config = base;
      vary(v, config);
      row.variants[v] = outcome(flow::run_design_flow(program, library, config));
    }
    rows.push_back(row);
  }
  return rows;
}

void print_ablation(const std::vector<AblationRow>& rows,
                    const std::array<const char*, 3>& variants,
                    std::ostream& os) {
  TablePrinter table;
  std::vector<std::string> header = {"benchmark"};
  for (const char* variant : variants) {
    header.push_back(std::string(variant) + " red.");
    header.push_back(std::string(variant) + " area");
  }
  table.set_header(std::move(header));
  for (const AblationRow& row : rows) {
    std::vector<std::string> cells = {
        std::string(bench_suite::name(row.benchmark))};
    for (const Outcome& o : row.variants) {
      cells.push_back(TablePrinter::pct(o.reduction));
      cells.push_back(TablePrinter::fmt(o.area, 0));
    }
    table.add_row(std::move(cells));
  }
  table.print(os);
}

// A dependence-chain DFG with plenty of side parallelism, in the spirit of
// the introduction's example: the t-chain is the 2-issue critical path; the
// u/v side chains fit into its slack on a 2-issue machine, so packing them
// into ISEs only wastes area there, yet a sequential (single-issue) view
// sees them as profitable.
constexpr const char* kMotivationBlock = R"(
  t1 = addu a, b
  t2 = xor t1, c
  t3 = and t2, d
  t4 = srl t3, 2
  u1 = addu e, f
  u2 = or u1, g
  u3 = and u2, p
  v1 = subu h, k
  v2 = xor v1, q
  v3 = or v2, s
  t5 = addu t4, u3
  t6 = xor t5, v3
  live_out t6
)";

/// Cycles of `block` on `machine` with the explored ISEs collapsed in.
int deploy_cycles(const dfg::Graph& block,
                  const core::ExplorationResult& explored,
                  const sched::MachineConfig& machine) {
  core::RewrittenBlock deployed(block);
  for (const core::ExploredIse& ise : explored.ises) deployed.collapse(ise);
  return sched::ListScheduler(machine).cycles(deployed.graph());
}

}  // namespace

int bench_repeats() {
  if (const char* env = std::getenv("ISEX_BENCH_REPEATS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 5;  // §5.1: exploration repeated 5 times per basic block
}

std::vector<sched::MachineConfig> paper_machines() {
  return {
      sched::MachineConfig::make(2, {4, 2}),
      sched::MachineConfig::make(2, {6, 3}),
      sched::MachineConfig::make(3, {6, 3}),
      sched::MachineConfig::make(3, {8, 4}),
      sched::MachineConfig::make(4, {8, 4}),
      sched::MachineConfig::make(4, {10, 5}),
  };
}

SuiteExploration::SuiteExploration(OptLevel level,
                                   const flow::FlowConfig& config)
    : machine_(config.machine) {
  for (const bench_suite::Benchmark benchmark : bench_suite::all_benchmarks())
    programs_.push_back({bench_suite::make_program(benchmark, level), 1.0});
  flow::PortfolioConfig portfolio;
  portfolio.base = config;
  const flow::PortfolioResult batch = flow::run_portfolio_flow(
      programs_, hw::HwLibrary::paper_default(), portfolio);
  for (std::size_t p = 0; p < programs_.size(); ++p)
    catalogs_.push_back(flow::build_catalog(programs_[p].program,
                                            batch.programs[p].hot_blocks,
                                            batch.programs[p].explorations));
}

Outcome SuiteExploration::replay(
    std::size_t p, const flow::SelectionConstraints& constraints) const {
  const flow::SelectionResult selection =
      flow::select_ises(catalogs_[p], constraints);
  const flow::ReplacementResult replaced =
      flow::apply_selection(programs_[p].program, selection, machine_);
  return {replaced.reduction(), selection.total_area, replaced.final_time};
}

Outcome SuiteExploration::replay_suite(
    const flow::SelectionConstraints& constraints) const {
  Outcome total;
  std::vector<double> reductions;
  for (std::size_t p = 0; p < size(); ++p) {
    const Outcome o = replay(p, constraints);
    reductions.push_back(o.reduction);
    total.area += o.area;
    total.final_time += o.final_time;
  }
  total.reduction = summarize(reductions).mean;
  return total;
}

std::string label(const SweepRow& row) {
  return std::string(row.algorithm == Algorithm::kMultiIssue ? "MI" : "SI") +
         row.machine.label() + ", " + std::string(bench_suite::name(row.level));
}

std::vector<HwOptionRow> table_5_1_1() {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  std::vector<HwOptionRow> rows;
  for (std::size_t i = 0; i < isa::kOpcodeCount; ++i) {
    const auto op = static_cast<isa::Opcode>(i);
    const auto cells = lib.hardware_options(op);
    for (std::size_t k = 0; k < cells.size(); ++k) {
      // Appended: GCC 12 misreports "HW-" + std::to_string(k) (-Wrestrict).
      std::string option = "HW-";
      option += std::to_string(k + 1);
      rows.push_back({std::string(isa::mnemonic(op)), std::move(option),
                      cells[k].delay, cells[k].area});
    }
  }
  return rows;
}

void print_table_5_1_1(const std::vector<HwOptionRow>& rows, std::ostream& os) {
  TablePrinter table;
  table.set_header({"operation", "option", "delay (ns)", "area (um^2)"});
  for (const HwOptionRow& row : rows)
    table.add_row({row.operation, row.option, TablePrinter::fmt(row.delay_ns, 2),
                   TablePrinter::fmt(row.area, 2)});
  table.print(os);
}

Motivation fig_1_3_1() {
  const isa::ParsedBlock block = isa::parse_tac(kMotivationBlock);
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  const auto one_issue = sched::MachineConfig::make(1, {4, 2});
  flow::FlowConfig config;
  config.machine = sched::MachineConfig::make(2, {6, 3});
  const sched::MachineConfig& two_issue = config.machine;

  Motivation m;
  m.single_issue_cycles = sched::ListScheduler(one_issue).cycles(block.graph);
  m.two_issue_cycles = sched::ListScheduler(two_issue).cycles(block.graph);

  config.algorithm = Algorithm::kSingleIssue;
  Rng rng_si(11);
  const core::ExplorationResult si_result =
      flow::make_explorer(config, lib).explore_best_of(block.graph, 5, rng_si);
  m.single_issue = {si_result.final_cycles, si_result.total_area()};
  m.case1 = {deploy_cycles(block.graph, si_result, two_issue),
             si_result.total_area()};

  config.algorithm = Algorithm::kMultiIssue;
  Rng rng_mi(11);
  const core::ExplorationResult mi_result =
      flow::make_explorer(config, lib).explore_best_of(block.graph, 5, rng_mi);
  m.case2 = {mi_result.final_cycles, mi_result.total_area()};
  return m;
}

void print_fig_1_3_1(const Motivation& rows, std::ostream& os) {
  TablePrinter table;
  table.set_header({"architecture", "cycles", "ASFU area (um^2)"});
  table.add_row({"single-issue, no ISE",
                 std::to_string(rows.single_issue_cycles), "0"});
  table.add_row({"2-issue, no ISE", std::to_string(rows.two_issue_cycles), "0"});
  const auto add = [&](const char* architecture, const Deployment& d) {
    table.add_row({architecture, std::to_string(d.cycles),
                   TablePrinter::fmt(d.area, 1)});
  };
  add("single-issue with ISE", rows.single_issue);
  add("case 1: SI exploration on 2-issue", rows.case1);
  add("case 2: MI exploration on 2-issue", rows.case2);
  table.print(os);
}

std::vector<SweepRow> fig_5_2_1(int repeats) {
  std::vector<flow::SelectionConstraints> points;
  for (const double budget : kAreaBudgets)
    points.push_back({.area_budget = budget, .max_ises = 32});
  return sweep(repeats, /*seed=*/17, points);
}

void print_fig_5_2_1(const std::vector<SweepRow>& rows, std::ostream& os) {
  std::vector<std::string> header;
  for (const double budget : kAreaBudgets)
    header.push_back(TablePrinter::fmt(budget / 1000.0, 0) + "k um^2");
  print_sweep(rows, std::move(header), os);
}

std::vector<SweepRow> fig_5_2_2(int repeats) {
  std::vector<flow::SelectionConstraints> points;
  for (const int count : kIseCounts) points.push_back({.max_ises = count});
  return sweep(repeats, /*seed=*/23, points);
}

void print_fig_5_2_2(const std::vector<SweepRow>& rows, std::ostream& os) {
  std::vector<std::string> header;
  for (const int count : kIseCounts)
    header.push_back(std::to_string(count) + " ISE");
  print_sweep(rows, std::move(header), os);
}

sched::MachineConfig fig_5_2_3_machine() {
  return sched::MachineConfig::make(2, {6, 3});
}

std::vector<AreaReductionRow> fig_5_2_3(int repeats) {
  const auto explore = [&](Algorithm algorithm) {
    return SuiteExploration(
        OptLevel::kO3,
        flow_config(fig_5_2_3_machine(), algorithm, repeats, /*seed=*/29));
  };
  const SuiteExploration mi = explore(Algorithm::kMultiIssue);
  const SuiteExploration si = explore(Algorithm::kSingleIssue);
  std::vector<AreaReductionRow> rows;
  for (const int count : kIseCounts) {
    const flow::SelectionConstraints point{.max_ises = count};
    rows.push_back({count, mi.replay_suite(point), si.replay_suite(point)});
  }
  return rows;
}

void print_fig_5_2_3(const std::vector<AreaReductionRow>& rows,
                     std::ostream& os) {
  TablePrinter table;
  table.set_header({"#ISEs", "MI area total (um^2)", "SI area total (um^2)",
                    "MI time red.", "SI time red."});
  for (const AreaReductionRow& row : rows)
    table.add_row({std::to_string(row.ises), TablePrinter::fmt(row.mi.area, 1),
                   TablePrinter::fmt(row.si.area, 1),
                   TablePrinter::pct(row.mi.reduction),
                   TablePrinter::pct(row.si.reduction)});
  table.print(os);
}

Headline headline(int repeats) {
  Headline h;
  for (const sched::MachineConfig& machine : paper_machines()) {
    const auto explore = [&](Algorithm algorithm) {
      return SuiteExploration(
          OptLevel::kO3, flow_config(machine, algorithm, repeats, /*seed=*/41));
    };
    const SuiteExploration mi = explore(Algorithm::kMultiIssue);
    const SuiteExploration si = explore(Algorithm::kSingleIssue);

    h.one_ise.push_back(mi.replay_suite({.max_ises = 1}).reduction);

    // Equal area: SI may spend, per benchmark, exactly the area MI spent.
    const flow::SelectionConstraints budget{.area_budget = 40000.0,
                                            .max_ises = 32};
    double mi_total = 0.0;
    double si_total = 0.0;
    for (std::size_t p = 0; p < mi.size(); ++p) {
      const Outcome mi_outcome = mi.replay(p, budget);
      const Outcome si_outcome =
          si.replay(p, {.area_budget = mi_outcome.area, .max_ises = 32});
      mi_total += static_cast<double>(mi_outcome.final_time);
      si_total += static_cast<double>(si_outcome.final_time);
    }
    // Further reduction of MI over SI: 1 - t_MI / t_SI over the suite.
    h.mi_over_si.push_back(si_total > 0 ? 1.0 - mi_total / si_total : 0.0);
  }
  return h;
}

void print_headline(const Headline& rows, std::ostream& os) {
  const auto add = [](TablePrinter& table, const char* metric,
                      const std::vector<double>& values,
                      std::vector<std::string> paper) {
    const Summary s = summarize(values);
    std::vector<std::string> cells = {metric, TablePrinter::pct(s.max),
                                      TablePrinter::pct(s.min),
                                      TablePrinter::pct(s.mean)};
    cells.insert(cells.end(), paper.begin(), paper.end());
    table.add_row(std::move(cells));
  };
  TablePrinter table;
  table.set_header({"metric", "max", "min", "avg", "paper max", "paper min",
                    "paper avg"});
  add(table, "1 ISE vs no ISE", rows.one_ise, {"17.17%", "12.90%", "14.79%"});
  add(table, "MI vs SI @ equal area", rows.mi_over_si,
      {"11.39%", "2.87%", "7.16%"});
  table.print(os);
}

std::vector<AblationRow> ablation_locality(int repeats) {
  return ablation(repeats, /*seed=*/53, [](std::size_t v, flow::FlowConfig& c) {
    if (v == 1) c.params.locality_aware = false;
    if (v == 2) c.algorithm = Algorithm::kSingleIssue;
  });
}

void print_ablation_locality(const std::vector<AblationRow>& rows,
                             std::ostream& os) {
  print_ablation(rows, {"MI", "MI-noloc", "SI"}, os);
}

std::vector<AblationRow> ablation_priority(int repeats) {
  return ablation(repeats, /*seed=*/61, [](std::size_t v, flow::FlowConfig& c) {
    constexpr std::array<sched::PriorityKind, 3> kKinds = {
        sched::PriorityKind::kChildCount, sched::PriorityKind::kMobility,
        sched::PriorityKind::kDescendantCount};
    c.params.sp_priority = kKinds[v];
  });
}

void print_ablation_priority(const std::vector<AblationRow>& rows,
                             std::ostream& os) {
  print_ablation(rows, {"children", "mobility", "descendants"}, os);
}

std::vector<ExtendedRow> extended_suite(int repeats) {
  flow::FlowConfig config = flow_config(
      fig_5_2_3_machine(), Algorithm::kMultiIssue, repeats, /*seed=*/83);
  config.constraints.area_budget = 40000.0;
  const hw::HwLibrary library = hw::HwLibrary::paper_default();
  std::vector<ExtendedRow> rows;
  for (const auto benchmark : bench_suite::all_extra_benchmarks()) {
    for (const OptLevel level : kLevels) {
      const flow::ProfiledProgram program =
          bench_suite::make_extra_program(benchmark, level);
      ExtendedRow row{benchmark, level, {}, {}};
      config.algorithm = Algorithm::kMultiIssue;
      row.mi = outcome(flow::run_design_flow(program, library, config));
      config.algorithm = Algorithm::kSingleIssue;
      row.si = outcome(flow::run_design_flow(program, library, config));
      rows.push_back(row);
    }
  }
  return rows;
}

void print_extended_suite(const std::vector<ExtendedRow>& rows,
                          std::ostream& os) {
  TablePrinter table;
  table.set_header({"benchmark", "opt", "MI red.", "MI area", "SI red.",
                    "SI area"});
  for (const ExtendedRow& row : rows)
    table.add_row({std::string(bench_suite::name(row.benchmark)),
                   std::string(bench_suite::name(row.level)),
                   TablePrinter::pct(row.mi.reduction),
                   TablePrinter::fmt(row.mi.area, 0),
                   TablePrinter::pct(row.si.reduction),
                   TablePrinter::fmt(row.si.area, 0)});
  table.print(os);
}

}  // namespace isex::paper
