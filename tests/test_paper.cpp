// PaperShapes: every table bench/paper prints, rendered at the paper's 5
// repeats and compared byte for byte with its golden in tests/data/paper/
// (the tables the per-figure harnesses printed before they became one
// module), and one assertion per shape bench/paper prints after the table.
// Each test computes its one figure once.  The figures explore through the
// design flow, so they are the same at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "paper_figures.hpp"
#include "util/stats.hpp"

namespace {

using namespace isex;
using bench_suite::OptLevel;
using flow::Algorithm;

constexpr int kRepeats = 5;  // §5.1

std::string golden(const std::string& name) {
  const std::string path =
      std::string(ISEX_TEST_DATA_DIR) + "/paper/" + name + ".txt";
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file) << "cannot read " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

template <typename Rows, typename Print>
std::string rendered(const Rows& rows, Print print) {
  std::ostringstream os;
  print(rows, os);
  return os.str();
}

/// A reduction in percentage points, rounded as the tables print it.
double points(double ratio) { return std::round(ratio * 10000.0) / 100.0; }

/// The (MI, SI) rows of each (machine, flavor) pair of a sweep.
std::vector<std::pair<const paper::SweepRow*, const paper::SweepRow*>> pairs(
    const std::vector<paper::SweepRow>& rows) {
  std::vector<std::pair<const paper::SweepRow*, const paper::SweepRow*>> out;
  for (const paper::SweepRow& mi : rows) {
    if (mi.algorithm != Algorithm::kMultiIssue) continue;
    for (const paper::SweepRow& si : rows)
      if (si.algorithm == Algorithm::kSingleIssue &&
          si.machine == mi.machine && si.level == mi.level)
        out.emplace_back(&mi, &si);
  }
  return out;
}

/// Pairs whose MI reduction is >= SI's at column `col`.
int mi_at_least_si(const std::vector<paper::SweepRow>& rows, std::size_t col) {
  int count = 0;
  for (const auto& [mi, si] : pairs(rows))
    if (mi->reductions[col] >= si->reductions[col]) ++count;
  return count;
}

/// SI's largest lead over MI in printed points, over columns [from, to).
double largest_si_lead(const std::vector<paper::SweepRow>& rows,
                       std::size_t from, std::size_t to) {
  double lead = 0.0;
  for (const auto& [mi, si] : pairs(rows))
    for (std::size_t col = from; col < to; ++col)
      lead = std::max(lead, points(si->reductions[col]) -
                                points(mi->reductions[col]));
  return lead;
}

TEST(PaperShapes, Table511HwOptions) {
  EXPECT_EQ(rendered(paper::table_5_1_1(), paper::print_table_5_1_1),
            golden("table_5_1_1_hw_options"));
}

TEST(PaperShapes, Fig131Motivation) {
  const paper::Motivation m = paper::fig_1_3_1();
  EXPECT_EQ(rendered(m, paper::print_fig_1_3_1),
            golden("fig_1_3_1_motivation"));

  // Widening issue alone helps, but an ISE cuts deeper.
  EXPECT_LT(m.two_issue_cycles, m.single_issue_cycles);
  EXPECT_LT(m.case2.cycles, m.two_issue_cycles);
  // Case 2 matches case 1's cycles with less area.
  EXPECT_EQ(m.case2.cycles, m.case1.cycles);
  EXPECT_LT(m.case2.area, m.case1.area);
}

TEST(PaperShapes, Fig521AreaSweep) {
  const std::vector<paper::SweepRow> rows = paper::fig_5_2_1(kRepeats);
  EXPECT_EQ(rendered(rows, paper::print_fig_5_2_1),
            golden("fig_5_2_1_area_sweep"));
  ASSERT_EQ(pairs(rows).size(), 12u);

  // Every row is non-decreasing in budget.
  for (const paper::SweepRow& row : rows)
    for (std::size_t col = 1; col < row.reductions.size(); ++col)
      EXPECT_GE(row.reductions[col], row.reductions[col - 1])
          << paper::label(row) << " at " << paper::kAreaBudgets[col];

  // At 5k MI beats SI in all 12 pairs; at 10k MI >= SI in 11 of 12.
  for (const auto& [mi, si] : pairs(rows))
    EXPECT_GT(mi->reductions[0], si->reductions[0]) << paper::label(*mi);
  EXPECT_EQ(mi_at_least_si(rows, 1), 11);

  // From 20k up MI >= SI in only 4-6 pairs per budget, and SI leads by up
  // to 3.25 points.
  for (std::size_t col = 2; col < paper::kAreaBudgets.size(); ++col) {
    EXPECT_GE(mi_at_least_si(rows, col), 4) << paper::kAreaBudgets[col];
    EXPECT_LE(mi_at_least_si(rows, col), 6) << paper::kAreaBudgets[col];
  }
  EXPECT_NEAR(largest_si_lead(rows, 2, paper::kAreaBudgets.size()), 3.25,
              1e-9);

  // At 40k, O3 leads O0 on both 2-issue machines by more than on either
  // 3-issue machine, and O0 leads on both 4-issue machines.
  constexpr std::size_t k40k = 3;
  ASSERT_EQ(paper::kAreaBudgets[k40k], 40000);
  for (const Algorithm algorithm : {Algorithm::kMultiIssue,
                                    Algorithm::kSingleIssue}) {
    std::vector<double> gap[5];  // O3 - O0, by issue width
    for (const paper::SweepRow& o0 : rows) {
      if (o0.algorithm != algorithm || o0.level != OptLevel::kO0) continue;
      for (const paper::SweepRow& o3 : rows)
        if (o3.algorithm == algorithm && o3.level == OptLevel::kO3 &&
            o3.machine == o0.machine)
          gap[o0.machine.issue_width].push_back(o3.reductions[k40k] -
                                                o0.reductions[k40k]);
    }
    ASSERT_EQ(gap[2].size(), 2u);
    ASSERT_EQ(gap[3].size(), 2u);
    ASSERT_EQ(gap[4].size(), 2u);
    const double least_2_issue = *std::min_element(gap[2].begin(), gap[2].end());
    EXPECT_GT(least_2_issue, 0.0);
    EXPECT_GT(least_2_issue, *std::max_element(gap[3].begin(), gap[3].end()));
    EXPECT_LT(*std::max_element(gap[4].begin(), gap[4].end()), 0.0);
  }
}

TEST(PaperShapes, Fig522IseCountSweep) {
  const std::vector<paper::SweepRow> rows = paper::fig_5_2_2(kRepeats);
  EXPECT_EQ(rendered(rows, paper::print_fig_5_2_2),
            golden("fig_5_2_2_ise_count_sweep"));
  ASSERT_EQ(pairs(rows).size(), 12u);
  ASSERT_EQ(paper::kIseCounts[3], 8);

  for (const paper::SweepRow& row : rows) {
    const std::vector<double>& r = row.reductions;
    // Every row is equal at 8, 16 and 32 ISEs.
    EXPECT_DOUBLE_EQ(r[4], r[3]) << paper::label(row);
    EXPECT_DOUBLE_EQ(r[5], r[3]) << paper::label(row);
    // The first ISE gives at least 41% of the row's reduction at 32 ISEs.
    EXPECT_GE(r[0], 0.41 * r[5]) << paper::label(row);
    // Every MI row is non-decreasing.
    if (row.algorithm == Algorithm::kMultiIssue) {
      for (std::size_t col = 1; col < r.size(); ++col)
        EXPECT_GE(r[col], r[col - 1]) << paper::label(row) << " at "
                                      << paper::kIseCounts[col];
    }
  }

  // SI rows need not be: SI (4/2, 2IS) O0 dips from 41.12% at 4 ISEs to
  // 41.10% at 8.
  const auto dip = std::find_if(rows.begin(), rows.end(), [](const auto& row) {
    return paper::label(row) == "SI(4/2, 2IS), O0";
  });
  ASSERT_NE(dip, rows.end());
  EXPECT_DOUBLE_EQ(points(dip->reductions[2]), 41.12);
  EXPECT_DOUBLE_EQ(points(dip->reductions[3]), 41.10);

  // MI and SI trade places: SI leads by up to 6.78 points, at 2 ISEs on
  // (10/5, 4IS) O3.
  EXPECT_NEAR(largest_si_lead(rows, 0, paper::kIseCounts.size()), 6.78, 1e-9);
  for (const auto& [mi, si] : pairs(rows)) {
    if (paper::label(*mi) == "MI(10/5, 4IS), O3") {
      EXPECT_NEAR(points(si->reductions[1]) - points(mi->reductions[1]), 6.78,
                  1e-9);
    }
  }
}

TEST(PaperShapes, Fig523AreaVsReduction) {
  const std::vector<paper::AreaReductionRow> rows = paper::fig_5_2_3(kRepeats);
  EXPECT_EQ(rendered(rows, paper::print_fig_5_2_3),
            golden("fig_5_2_3_area_vs_reduction"));
  ASSERT_EQ(rows.size(), paper::kIseCounts.size());
  const paper::AreaReductionRow& one = rows[0];
  const paper::AreaReductionRow& two = rows[1];
  const paper::AreaReductionRow& four = rows[2];
  const paper::AreaReductionRow& eight = rows[3];
  ASSERT_EQ(eight.ises, 8);

  // The first ISE gives over 60% of the reduction both reach from 8 ISEs.
  EXPECT_GT(one.mi.reduction, 0.6 * eight.mi.reduction);
  EXPECT_GT(one.si.reduction, 0.6 * eight.si.reduction);

  // From 8 ISEs on both reduce 54.65%, MI with less area than SI.
  for (std::size_t i = 3; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(points(rows[i].mi.reduction), 54.65) << rows[i].ises;
    EXPECT_DOUBLE_EQ(points(rows[i].si.reduction), 54.65) << rows[i].ises;
    EXPECT_LT(rows[i].mi.area, rows[i].si.area) << rows[i].ises;
  }

  // Below that MI does not lead everywhere: at 2 ISEs SI reduces more, and
  // at 4 ISEs SI uses less area.
  EXPECT_GT(two.si.reduction, two.mi.reduction);
  EXPECT_LT(four.si.area, four.mi.area);
}

TEST(PaperShapes, Headline) {
  const paper::Headline h = paper::headline(kRepeats);
  EXPECT_EQ(rendered(h, paper::print_headline), golden("headline_numbers"));
  ASSERT_EQ(h.one_ise.size(), 6u);
  ASSERT_EQ(h.mi_over_si.size(), 6u);

  // MI beats SI at equal area on all six machines.
  for (const double further : h.mi_over_si) EXPECT_GT(further, 0.0);

  // One ISE gives at least 24% on every machine; its 31.21% average is
  // about twice the paper's 14.79%.
  for (const double reduction : h.one_ise) EXPECT_GE(reduction, 0.24);
  const Summary one_ise = summarize(h.one_ise);
  EXPECT_DOUBLE_EQ(points(one_ise.mean), 31.21);
  EXPECT_NEAR(one_ise.mean / 0.1479, 2.0, 0.25);
}

TEST(PaperShapes, AblationLocality) {
  const std::vector<paper::AblationRow> rows =
      paper::ablation_locality(kRepeats);
  EXPECT_EQ(rendered(rows, paper::print_ablation_locality),
            golden("ablation_locality"));
  ASSERT_EQ(rows.size(), 7u);

  // Per benchmark, MI reduces at least as much as both variants, with no
  // more area.
  for (const paper::AblationRow& row : rows) {
    const paper::Outcome& mi = row.variants[0];
    for (std::size_t v = 1; v < row.variants.size(); ++v) {
      EXPECT_GE(mi.reduction, row.variants[v].reduction)
          << bench_suite::name(row.benchmark) << " variant " << v;
      EXPECT_LE(mi.area, row.variants[v].area)
          << bench_suite::name(row.benchmark) << " variant " << v;
    }
  }
}

TEST(PaperShapes, AblationPriority) {
  const std::vector<paper::AblationRow> rows =
      paper::ablation_priority(kRepeats);
  EXPECT_EQ(rendered(rows, paper::print_ablation_priority),
            golden("ablation_priority"));
  ASSERT_EQ(rows.size(), 7u);

  for (const paper::AblationRow& row : rows) {
    const auto& [children, mobility, descendants] = row.variants;
    // Mobility reduces at least as much as child count on every benchmark.
    EXPECT_GE(mobility.reduction, children.reduction)
        << bench_suite::name(row.benchmark);
    // The priorities differ only on CRC32, where they are 8.89 points apart.
    const auto [least, most] = std::minmax(
        {children.reduction, mobility.reduction, descendants.reduction});
    if (row.benchmark == bench_suite::Benchmark::kCrc32) {
      EXPECT_NEAR(points(most) - points(least), 8.89, 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(least, most) << bench_suite::name(row.benchmark);
    }
  }
}

TEST(PaperShapes, ExtendedSuite) {
  const std::vector<paper::ExtendedRow> rows = paper::extended_suite(kRepeats);
  EXPECT_EQ(rendered(rows, paper::print_extended_suite),
            golden("extended_suite"));
  ASSERT_EQ(rows.size(), 6u);

  // In all six rows MI matches SI's reduction with less area.
  for (const paper::ExtendedRow& row : rows) {
    EXPECT_DOUBLE_EQ(row.mi.reduction, row.si.reduction)
        << bench_suite::name(row.benchmark) << " " << bench_suite::name(row.level);
    EXPECT_LT(row.mi.area, row.si.area)
        << bench_suite::name(row.benchmark) << " " << bench_suite::name(row.level);
  }

  // At each flavor the shift/xor networks (AES, SHA-256) reduce more than
  // Sobel.
  for (const OptLevel level : {OptLevel::kO0, OptLevel::kO3}) {
    double sobel = 0.0;
    double least_shift_xor = 1.0;
    for (const paper::ExtendedRow& row : rows) {
      if (row.level != level) continue;
      if (row.benchmark == bench_suite::ExtraBenchmark::kSobel)
        sobel = row.mi.reduction;
      else
        least_shift_xor = std::min(least_shift_xor, row.mi.reduction);
    }
    EXPECT_GT(least_shift_xor, sobel) << bench_suite::name(level);
  }
}

}  // namespace
