#include "core/pheromone.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "test_util.hpp"

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
  const std::vector<bool> reordered(3, false);
  state.update_trails(chosen, reordered, /*improved=*/true);
  EXPECT_DOUBLE_EQ(state.trail(0, 1), params_.rho1);
  EXPECT_DOUBLE_EQ(state.trail(0, 0), 0.0);  // clamped at zero
  EXPECT_DOUBLE_EQ(state.trail(2, 0), params_.rho1);
}

TEST_F(PheromoneTest, RegressionPenalizesChosenAndRewardsOthers) {
  PheromoneState state(gplus_, params_);
  const std::vector<int> chosen = {1, 1, 1};
  const std::vector<bool> reordered(3, false);
  state.update_trails(chosen, reordered, true);   // build some trail
  state.update_trails(chosen, reordered, false);  // regress
  EXPECT_DOUBLE_EQ(state.trail(0, 1), params_.rho1 - params_.rho3);
  EXPECT_DOUBLE_EQ(state.trail(0, 0), params_.rho4);  // 0 - rho2 clamp + rho4
}

TEST_F(PheromoneTest, ReorderedOperationsLoseExtraTrail) {
  PheromoneState state(gplus_, params_);
  const std::vector<int> chosen = {0, 0, 0};
  std::vector<bool> reordered = {true, false, false};
  state.update_trails(chosen, reordered, true);  // improved: rho5 not applied
  const double base = state.trail(0, 0);
  EXPECT_DOUBLE_EQ(base, state.trail(1, 0));
  state.update_trails(chosen, reordered, false);  // regression: rho5 applies
  EXPECT_DOUBLE_EQ(state.trail(1, 0) - state.trail(0, 0), params_.rho5);
}

TEST_F(PheromoneTest, TrailClampedToMax) {
  ExplorerParams p;
  p.trail_max = 10.0;
  PheromoneState state(gplus_, p);
  const std::vector<int> chosen = {0, 0, 0};
  const std::vector<bool> reordered(3, false);
  for (int i = 0; i < 100; ++i) state.update_trails(chosen, reordered, true);
  EXPECT_DOUBLE_EQ(state.trail(0, 0), 10.0);
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
  const std::vector<bool> reordered(3, false);
  state.update_trails(chosen, reordered, true);
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
  const std::vector<bool> reordered(3, false);
  state.update_trails(chosen, reordered, true);
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
      std::vector<bool> reordered(g.num_nodes());
      for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
        chosen[v] = static_cast<int>(rng.next_below(
            static_cast<std::uint32_t>(state->num_options(v))));
        reordered[v] = rng.next_below(3) == 0;
        for (std::size_t o = 0; o < state->num_options(v); ++o)
          state->scale_merit(v, o, 0.5 + rng.next_double());
        state->normalize_merit(v);
      }
      state->update_trails(chosen, reordered, rng.next_below(2) == 0);
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

}  // namespace
}  // namespace isex::core
