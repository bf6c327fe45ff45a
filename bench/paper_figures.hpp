// The paper's tables and figures as rows.  Each table has one function that
// returns its rows as plain values and one renderer that prints them through
// TablePrinter.  bench/paper prints every table; tests/test_paper.cpp
// (ctest label `paper`) compares each rendering with its golden in
// tests/data/paper/ and asserts each shape the harness prints.
//
// Every figure explores through the design flow itself.  A suite point is
// one flow::run_portfolio_flow over the seven programs at weight 1, so each
// program explores exactly as its own run_design_flow with the same seed
// would.  Exploration does not depend on the selection constraints, so each
// constraint point of a figure replays only selection and replacement
// (build_catalog, select_ises, apply_selection) over those explorations, as
// the paper sweeps Figs 5.2.1-5.2.3 from one set of explored candidates.
// The ablations and the extended suite run run_design_flow with one setting
// changed.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bench_suite/extended.hpp"
#include "bench_suite/kernels.hpp"
#include "flow/portfolio.hpp"

namespace isex::paper {

/// Explorations per block, best kept: 5 (§5.1), or ISEX_BENCH_REPEATS.
int bench_repeats();

/// The six machine configurations of §5.1.
std::vector<sched::MachineConfig> paper_machines();

/// A program's outcome at one constraint point: its execution-time
/// reduction, the ASFU area it selected and its final execution time.  A
/// suite row holds the suite's mean reduction, total area and total time.
struct Outcome {
  double reduction = 0.0;
  double area = 0.0;
  std::uint64_t final_time = 0;
};

/// The seven suite programs at one flavor, explored as one portfolio batch.
class SuiteExploration {
 public:
  /// Explores under `config`'s machine, algorithm, repeats, seed and
  /// explorer params.
  SuiteExploration(bench_suite::OptLevel level, const flow::FlowConfig& config);

  std::size_t size() const { return programs_.size(); }

  /// Program `p`'s selection and replacement under `constraints`.
  Outcome replay(std::size_t p,
                 const flow::SelectionConstraints& constraints) const;

  /// The suite's mean reduction, total area and total final time.
  Outcome replay_suite(const flow::SelectionConstraints& constraints) const;

 private:
  sched::MachineConfig machine_;
  std::vector<flow::PortfolioEntry> programs_;
  std::vector<std::vector<flow::IseCatalogEntry>> catalogs_;
};

// --- Table 5.1.1: hardware implementation options --------------------------

struct HwOptionRow {
  std::string operation;
  std::string option;
  double delay_ns = 0.0;
  double area = 0.0;
};

std::vector<HwOptionRow> table_5_1_1();
void print_table_5_1_1(const std::vector<HwOptionRow>& rows, std::ostream& os);

// --- Fig 1.3.1: the motivation example, block level ------------------------

/// Cycles and ASFU area of one explored ISE set on one machine.
struct Deployment {
  int cycles = 0;
  double area = 0.0;
};

struct Motivation {
  int single_issue_cycles = 0;  ///< no ISE
  int two_issue_cycles = 0;     ///< no ISE
  Deployment single_issue;      ///< SI exploration on its own machine
  Deployment case1;             ///< the same ISEs deployed on 2-issue
  Deployment case2;             ///< MI exploration for 2-issue
};

Motivation fig_1_3_1();
void print_fig_1_3_1(const Motivation& rows, std::ostream& os);

// --- Figs 5.2.1 and 5.2.2: suite averages over a constraint axis -----------

inline constexpr std::array<double, 7> kAreaBudgets = {
    5000, 10000, 20000, 40000, 80000, 160000, 320000};
inline constexpr std::array<int, 6> kIseCounts = {1, 2, 4, 8, 16, 32};

/// One bar group: an explorer on a machine at a flavor, and its suite-mean
/// reduction at each point of the figure's axis.
struct SweepRow {
  flow::Algorithm algorithm = flow::Algorithm::kMultiIssue;
  sched::MachineConfig machine;
  bench_suite::OptLevel level = bench_suite::OptLevel::kO0;
  std::vector<double> reductions;
};

/// The row's label as the tables print it, e.g. "MI(6/3, 2IS), O3".
std::string label(const SweepRow& row);

/// Fig 5.2.1: reduction per kAreaBudgets entry, at most 32 ISEs.
std::vector<SweepRow> fig_5_2_1(int repeats);
void print_fig_5_2_1(const std::vector<SweepRow>& rows, std::ostream& os);

/// Fig 5.2.2: reduction per kIseCounts entry, unconstrained area.
std::vector<SweepRow> fig_5_2_2(int repeats);
void print_fig_5_2_2(const std::vector<SweepRow>& rows, std::ostream& os);

// --- Fig 5.2.3: area against reduction as the ISE count grows --------------

/// The (6/3, 2IS) machine of Fig 5.2.3, the ablations and the extended
/// suite.
sched::MachineConfig fig_5_2_3_machine();

struct AreaReductionRow {
  int ises = 0;
  Outcome mi;
  Outcome si;
};

std::vector<AreaReductionRow> fig_5_2_3(int repeats);
void print_fig_5_2_3(const std::vector<AreaReductionRow>& rows,
                     std::ostream& os);

// --- Headline numbers (abstract, Ch. 6) -------------------------------------

/// Per machine of paper_machines(), at O3: the suite-mean reduction of one
/// ISE against none, and MI's further reduction over SI when SI may spend,
/// per benchmark, the area MI spent under a 40k um^2 budget.
struct Headline {
  std::vector<double> one_ise;
  std::vector<double> mi_over_si;
};

Headline headline(int repeats);
void print_headline(const Headline& rows, std::ostream& os);

// --- Ablations and the extended suite ---------------------------------------

/// One benchmark at O3 on fig_5_2_3_machine() under a 40k um^2 budget, one
/// outcome per explorer variant.
struct AblationRow {
  bench_suite::Benchmark benchmark = bench_suite::Benchmark::kCrc32;
  std::array<Outcome, 3> variants;
};

/// Variants: MI, MI without the merit's locality terms, SI.
std::vector<AblationRow> ablation_locality(int repeats);
void print_ablation_locality(const std::vector<AblationRow>& rows,
                             std::ostream& os);

/// Variants: the child-count, mobility and descendant-count priorities.
std::vector<AblationRow> ablation_priority(int repeats);
void print_ablation_priority(const std::vector<AblationRow>& rows,
                             std::ostream& os);

/// One extended kernel at one flavor on fig_5_2_3_machine() under a 40k
/// um^2 budget.
struct ExtendedRow {
  bench_suite::ExtraBenchmark benchmark = bench_suite::ExtraBenchmark::kAes;
  bench_suite::OptLevel level = bench_suite::OptLevel::kO0;
  Outcome mi;
  Outcome si;
};

std::vector<ExtendedRow> extended_suite(int repeats);
void print_extended_suite(const std::vector<ExtendedRow>& rows,
                          std::ostream& os);

}  // namespace isex::paper
