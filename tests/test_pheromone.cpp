#include "core/pheromone.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "dfg/analysis.hpp"
#include "test_util.hpp"
#include "trail_reference.hpp"

namespace isex::core {
namespace {

class PheromoneTest : public ::testing::Test {
 protected:
  PheromoneTest()
      : graph_(testing::make_chain(3, isa::Opcode::kAddu)),
        lib_(hw::HwLibrary::paper_default()),
        gplus_(graph_, lib_) {}

  dfg::Graph graph_;
  hw::HwLibrary lib_;
  hw::GPlus gplus_;
  ExplorerParams params_;
  /// Pick order 0, 1, 2 after a first iteration: no node was reordered.
  const std::vector<int> order_ = {0, 1, 2};
  const std::vector<int> first_ = {-1, -1, -1};
};

TEST_F(PheromoneTest, InitialValuesFollowParams) {
  const PheromoneState state(gplus_, params_);
  for (dfg::NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(state.num_options(v), 3u);  // SW + 2 adder HW options
    EXPECT_DOUBLE_EQ(state.trail(v, 0), 0.0);
    EXPECT_DOUBLE_EQ(state.merit(v, 0), 100.0);  // software
    EXPECT_DOUBLE_EQ(state.merit(v, 1), 200.0);  // hardware
    EXPECT_DOUBLE_EQ(state.merit(v, 2), 200.0);
  }
}

TEST_F(PheromoneTest, ImprovedIterationRewardsChosen) {
  PheromoneState state(gplus_, params_);
  const std::vector<int> chosen = {1, 1, 0};
  state.update_trails(chosen, order_, first_, /*improved=*/true);
  EXPECT_DOUBLE_EQ(state.trail(0, 1), params_.rho1);
  EXPECT_DOUBLE_EQ(state.trail(0, 0), 0.0);  // clamped at zero
  EXPECT_DOUBLE_EQ(state.trail(2, 0), params_.rho1);
}

TEST_F(PheromoneTest, RegressionPenalizesChosenAndRewardsOthers) {
  PheromoneState state(gplus_, params_);
  const std::vector<int> chosen = {1, 1, 1};
  state.update_trails(chosen, order_, first_, true);   // build some trail
  state.update_trails(chosen, order_, first_, false);  // regress
  EXPECT_DOUBLE_EQ(state.trail(0, 1), params_.rho1 - params_.rho3);
  EXPECT_DOUBLE_EQ(state.trail(0, 0), params_.rho4);  // 0 - rho2 clamp + rho4
}

TEST_F(PheromoneTest, ReorderedOperationsLoseExtraTrail) {
  PheromoneState state(gplus_, params_);
  const std::vector<int> chosen = {0, 0, 0};
  // Node 0 ran at position 0 after position 1 last time: reordered.
  const std::vector<int> prev_order = {1, 1, 2};
  state.update_trails(chosen, order_, prev_order, true);  // improved: no rho5
  const double base = state.trail(0, 0);
  EXPECT_DOUBLE_EQ(base, state.trail(1, 0));
  state.update_trails(chosen, order_, prev_order, false);  // regression: rho5
  EXPECT_DOUBLE_EQ(state.trail(1, 0) - state.trail(0, 0), params_.rho5);
}

TEST_F(PheromoneTest, TrailClampedToMax) {
  PheromoneState state(gplus_, params_);
  // Start near the clamp so a few rho1 rewards reach it.
  state.set_trail(0, 0, ExplorerParams::trail_max - 10.0);
  const std::vector<int> chosen = {0, 0, 0};
  for (int i = 0; i < 100; ++i)
    state.update_trails(chosen, order_, first_, true);
  EXPECT_DOUBLE_EQ(state.trail(0, 0), ExplorerParams::trail_max);
}

TEST_F(PheromoneTest, NormalizeMeritScalesBestToScale) {
  PheromoneState state(gplus_, params_);
  state.set_merit(0, 0, 10.0);
  state.set_merit(0, 1, 40.0);
  state.set_merit(0, 2, 20.0);
  state.normalize_merit(0);
  EXPECT_DOUBLE_EQ(state.merit(0, 1), params_.merit_scale);
  EXPECT_DOUBLE_EQ(state.merit(0, 0), params_.merit_scale / 4.0);
  EXPECT_DOUBLE_EQ(state.merit(0, 2), params_.merit_scale / 2.0);
}

TEST_F(PheromoneTest, NormalizeMeritRecoversFromAllZero) {
  PheromoneState state(gplus_, params_);
  for (std::size_t o = 0; o < 3; ++o) state.set_merit(0, o, 0.0);
  state.normalize_merit(0);
  for (std::size_t o = 0; o < 3; ++o)
    EXPECT_DOUBLE_EQ(state.merit(0, o), params_.merit_scale);
}

TEST_F(PheromoneTest, SelectedProbabilitySumsToOne) {
  PheromoneState state(gplus_, params_);
  const std::vector<int> chosen = {1, 2, 0};
  state.update_trails(chosen, order_, first_, true);
  for (dfg::NodeId v = 0; v < 3; ++v) {
    double sum = 0.0;
    for (std::size_t o = 0; o < state.num_options(v); ++o)
      sum += state.selected_probability(v, o);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST_F(PheromoneTest, ConvergenceReachedWhenMeritConcentrates) {
  PheromoneState state(gplus_, params_);
  EXPECT_FALSE(state.converged());
  for (dfg::NodeId v = 0; v < 3; ++v) {
    state.set_merit(v, 1, 10000.0);
    state.set_merit(v, 0, 1e-9);
    state.set_merit(v, 2, 1e-9);
    state.normalize_merit(v);
  }
  EXPECT_TRUE(state.converged());
  for (dfg::NodeId v = 0; v < 3; ++v) EXPECT_EQ(state.best_option(v), 1u);
}

TEST_F(PheromoneTest, SingleOptionNodesTriviallyConverged) {
  dfg::Graph g;
  g.add_node(isa::Opcode::kLw, "load");  // software-only
  hw::GPlus gp(g, lib_);
  PheromoneState state(gp, params_);
  EXPECT_TRUE(state.converged());
}

TEST_F(PheromoneTest, WeightMixesTrailAndMerit) {
  PheromoneState state(gplus_, params_);
  // weight = α·trail + (1−α)·merit; initially trail = 0.
  EXPECT_DOUBLE_EQ(state.weight(0, 0), 0.75 * 100.0);
  EXPECT_DOUBLE_EQ(state.weight(0, 1), 0.75 * 200.0);
  const std::vector<int> chosen = {0, 0, 0};
  state.update_trails(chosen, order_, first_, true);
  EXPECT_DOUBLE_EQ(state.weight(0, 0), 0.25 * params_.rho1 + 0.75 * 100.0);
}

TEST_F(PheromoneTest, FlatWeightsMatchPerNode) {
  // The whole-table weights_into must equal weight(v, o) bit for bit, at
  // the G+ offset(v) + o — after trained updates and after a colony merge.
  Rng rng(21);
  const dfg::Graph g = testing::make_random_dag(40, rng);
  const hw::GPlus gplus(g, lib_);
  PheromoneState a(gplus, params_);
  PheromoneState b(gplus, params_);
  const auto expect_flat_matches = [&](const PheromoneState& state) {
    std::vector<double> flat(state.gplus().num_entries());
    state.weights_into(flat);
    for (dfg::NodeId v = 0; v < state.num_nodes(); ++v) {
      for (std::size_t o = 0; o < state.num_options(v); ++o) {
        const double w = flat[state.gplus().offset(v) + o];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(w),
                  std::bit_cast<std::uint64_t>(state.weight(v, o)))
            << "v=" << v << " o=" << o;
      }
    }
  };
  expect_flat_matches(a);

  // Trained: trail updates and merit rescaling as iterations apply them.
  for (int it = 0; it < 30; ++it) {
    for (PheromoneState* state : {&a, &b}) {
      std::vector<int> chosen(g.num_nodes());
      std::vector<int> order(g.num_nodes());
      std::vector<int> prev_order(g.num_nodes());
      for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
        chosen[v] = static_cast<int>(rng.next_below(
            static_cast<std::uint32_t>(state->num_options(v))));
        // Reordered (ran earlier than last time) with probability 1/3.
        order[v] = static_cast<int>(v);
        prev_order[v] = rng.next_below(3) == 0 ? static_cast<int>(v) + 1 : -1;
        for (std::size_t o = 0; o < state->num_options(v); ++o)
          state->scale_merit(v, o, 0.5 + rng.next_double());
        state->normalize_merit(v);
      }
      state->update_trails(chosen, order, prev_order,
                           rng.next_below(2) == 0);
    }
  }
  expect_flat_matches(a);
  expect_flat_matches(b);

  PheromoneMerger merger(2, params_);
  const std::vector<int> best_a(g.num_nodes(), 0);
  const std::vector<int> best_b(g.num_nodes(), 1);
  merger.submit(0, a, /*best_tet=*/12, best_a);
  merger.submit(1, b, /*best_tet=*/10, best_b);
  PheromoneState merged(gplus, params_);
  merger.finalize_into(merged);
  expect_flat_matches(merged);
}

TEST_F(PheromoneTest, TrailUpdateMatchesReferenceBitForBit) {
  // The flat update against the per-entry reference, bit for bit, over
  // random blocks, every suite block and an ISE-collapsed block; random
  // chosen options, pick orders and previous orders (-1 entries included);
  // both values of `improved`; and clamping at 0 and at trail_max.
  std::vector<std::pair<std::string, dfg::Graph>> blocks;
  Rng graph_rng(31);
  for (const std::size_t n : {1u, 5u, 40u, 96u})
    blocks.emplace_back("random" + std::to_string(n),
                        testing::make_random_dag(n, graph_rng));
  for (const auto bm : bench_suite::all_benchmarks()) {
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3}) {
      for (const flow::ProfiledBlock& block :
           bench_suite::make_program(bm, level).blocks)
        blocks.emplace_back(block.name, block.graph);
    }
  }
  {
    // Collapse the first convex pair of adjacent hardware-capable nodes.
    const dfg::Graph& g = blocks.back().second;
    const hw::GPlus gp(g, lib_);
    const dfg::Reachability reach(g);
    dfg::Graph collapsed;
    for (dfg::NodeId v = 0; v < g.num_nodes() && collapsed.empty(); ++v) {
      for (const dfg::NodeId s : g.succs(v)) {
        if (!gp.hardware_capable(v) || !gp.hardware_capable(s) ||
            reach.descendants(v).intersects(reach.ancestors(s)))
          continue;
        dfg::IseInfo info;
        info.latency_cycles = 1;
        info.num_inputs = 2;
        info.num_outputs = 1;
        collapsed = g.collapse(dfg::NodeSet::of(g.num_nodes(), {v, s}), info);
        break;
      }
    }
    ASSERT_FALSE(collapsed.empty());
    blocks.emplace_back("ISE-collapsed", std::move(collapsed));
  }

  Rng rng(5);
  std::size_t clamped_low = 0;
  std::size_t clamped_high = 0;
  std::size_t reordered_nodes = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const dfg::Graph& g = blocks[b].second;
    SCOPED_TRACE(blocks[b].first);
    const std::size_t n = g.num_nodes();
    const hw::GPlus gp(g, lib_);
    ExplorerParams params;
    PheromoneState flat(gp, params);
    PheromoneState ref(gp, params);
    if (b % 2 == 1) {
      // Start within 8 of trail_max, which a few updates then reach.
      for (dfg::NodeId v = 0; v < n; ++v) {
        for (std::size_t o = 0; o < gp.num_options(v); ++o) {
          const double t =
              ExplorerParams::trail_max - static_cast<double>((v + o) % 9);
          flat.set_trail(v, o, t);
          ref.set_trail(v, o, t);
        }
      }
    }
    std::vector<int> chosen(n);
    std::vector<int> order(n);
    std::vector<int> prev_order(n, -1);
    for (int it = 0; it < 40; ++it) {
      for (dfg::NodeId v = 0; v < n; ++v) {
        chosen[v] = static_cast<int>(
            rng.next_below(static_cast<std::uint32_t>(gp.num_options(v))));
        order[v] = static_cast<int>(v);
      }
      for (std::size_t i = n; i > 1; --i)  // Fisher-Yates
        std::swap(order[i - 1],
                  order[rng.next_below(static_cast<std::uint32_t>(i))]);
      if (it % 7 == 3) {
        // A previous order with some nodes never seen (-1).
        for (dfg::NodeId v = 0; v < n; ++v)
          if (rng.next_below(4) == 0) prev_order[v] = -1;
      }
      const bool improved = rng.next_below(2) == 0;
      const std::vector<bool> reordered =
          testing::reference_reordered(order, prev_order);
      if (!improved)
        reordered_nodes += static_cast<std::size_t>(
            std::count(reordered.begin(), reordered.end(), true));

      flat.update_trails(chosen, order, prev_order, improved);
      testing::reference_update_trails(ref, params, chosen, reordered,
                                       improved);
      for (dfg::NodeId v = 0; v < n; ++v) {
        for (std::size_t o = 0; o < gp.num_options(v); ++o) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(flat.trail(v, o)),
                    std::bit_cast<std::uint64_t>(ref.trail(v, o)))
              << "iteration " << it << " v=" << v << " o=" << o;
          clamped_low += ref.trail(v, o) == 0.0;
          clamped_high += ref.trail(v, o) == params.trail_max;
        }
      }
      prev_order = order;
    }
  }
  EXPECT_GT(clamped_low, 0u);
  EXPECT_GT(clamped_high, 0u);
  EXPECT_GT(reordered_nodes, 0u);
}

}  // namespace
}  // namespace isex::core
