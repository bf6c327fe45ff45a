#include "core/merit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "grouping_reference.hpp"
#include "test_util.hpp"

namespace isex::core {
namespace {

class MeritTest : public ::testing::Test {
 protected:
  MeritTest() : lib_(hw::HwLibrary::paper_default()) {}

  /// Runs `iterations` merit updates over `g` given previous choices and a
  /// critical set; returns the post-update state, whose G+ the fixture
  /// keeps alive.  (A single decay never flips the initial 200:100
  /// hardware:software ratio — the algorithm relies on repeated
  /// evaporation, so several tests iterate.)
  PheromoneState run_update(const dfg::Graph& g, const std::vector<int>& chosen,
                            const dfg::NodeSet& critical, int tet,
                            int iterations = 1) {
    const hw::GPlus& gplus = gplus_.emplace_back(g, lib_);
    dfg::Reachability reach(g);
    PheromoneState state(gplus, params_);
    MeritEngine engine(gplus, format_, params_, reach);
    GroupingScratch scratch;
    const dfg::PathInfo path = dfg::longest_path(
        g, [&](dfg::NodeId v) { return gplus.software_cycles(v); });
    MeritInputs inputs;
    inputs.chosen = chosen;
    inputs.critical = &critical;
    inputs.path = &path;
    inputs.tet = tet;
    for (int i = 0; i < iterations; ++i) engine.update(state, inputs, scratch);
    return state;
  }

  hw::HwLibrary lib_;
  isa::IsaFormat format_;
  ExplorerParams params_;
  /// One G+ per run_update call; a deque keeps earlier ones in place.
  std::deque<hw::GPlus> gplus_;
};

TEST_F(MeritTest, SingletonCandidateDecaysHardwareMerit) {
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAnd);
  dfg::NodeSet critical(3);  // nothing critical
  // One βSize = 0.7 decay narrows the gap; by the fourth iteration the
  // 200:100 initial ratio has flipped (2 × 0.7⁴ < 1).
  const PheromoneState once = run_update(g, {0, 0, 0}, critical, 3, 1);
  const PheromoneState often = run_update(g, {0, 0, 0}, critical, 3, 4);
  for (dfg::NodeId v = 0; v < 3; ++v) {
    EXPECT_LT(once.merit(v, 1) / once.merit(v, 0), 2.0);  // decayed
    EXPECT_LT(often.merit(v, 1), often.merit(v, 0));      // flipped
  }
}

TEST_F(MeritTest, UsefulChainCandidateBoostsHardware) {
  // All three ands chose hardware: vS of each is the full chain, legal,
  // saving = 3 sw cycles - 1 hw cycle = 2 > 0.
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAnd);
  dfg::NodeSet critical = dfg::NodeSet::of(3, {0, 1, 2});
  const PheromoneState state = run_update(g, {1, 1, 1}, critical, 3);
  for (dfg::NodeId v = 0; v < 3; ++v)
    EXPECT_GT(state.merit(v, 1), state.merit(v, 0));
}

TEST_F(MeritTest, CriticalPathBoostsRelativeToNonCritical) {
  // Two independent and-chains; only the first is critical.
  dfg::Graph g;
  std::vector<int> chosen;
  for (int lane = 0; lane < 2; ++lane) {
    dfg::NodeId prev = dfg::kInvalidNode;
    for (int i = 0; i < 3; ++i) {
      const auto v = g.add_node(isa::Opcode::kAnd);
      if (prev != dfg::kInvalidNode) g.add_edge(prev, v);
      prev = v;
      chosen.push_back(1);
    }
    g.set_live_out(prev, true);
  }
  dfg::NodeSet critical = dfg::NodeSet::of(6, {0, 1, 2});
  const PheromoneState state = run_update(g, chosen, critical, 3);
  // Same structure; the critical lane's hardware merit must be >= the
  // non-critical lane's after normalization (case 1 boost + case 4 branch).
  EXPECT_GE(state.merit(0, 1), state.merit(3, 1));
}

TEST_F(MeritTest, IoViolationShrinksMerit) {
  dfg::Graph g;
  std::vector<int> chosen;
  const auto x = g.add_node(isa::Opcode::kXor, "x");
  chosen.push_back(1);
  for (int i = 0; i < 5; ++i) {
    const auto p = g.add_node(isa::Opcode::kAnd);
    g.set_extern_inputs(p, 2);
    g.add_edge(p, x);
    chosen.push_back(1);
  }
  dfg::NodeSet critical(6);
  // βIO = 0.8 per iteration: ratio 2 × 0.8⁴ < 1 by the fourth update.
  const PheromoneState state = run_update(g, chosen, critical, 2, 4);
  // In(vS) = 10 > 4: hardware merit decays below software everywhere.
  EXPECT_LT(state.merit(x, 1), state.merit(x, 0));
}

TEST_F(MeritTest, SoftwareMeritScalesWithExecutionTime) {
  // An ISE supernode's "software" option delay multiplies its merit, but a
  // single-option node is normalized back to scale — verify no blow-up.
  dfg::Graph g;
  dfg::IseInfo info;
  info.latency_cycles = 4;
  g.add_ise_node(info, "ISE");
  dfg::NodeSet critical(1);
  const PheromoneState state = run_update(g, {0}, critical, 4);
  EXPECT_DOUBLE_EQ(state.merit(0, 0), params_.merit_scale);
}

TEST_F(MeritTest, MaxAecWindowOfSlackChain) {
  // a -> b -> d plus a -> c -> d where c..d is the critical lane (via an
  // extra node), giving b slack.
  dfg::Graph g;
  const auto a = g.add_node(isa::Opcode::kAnd, "a");
  const auto b = g.add_node(isa::Opcode::kAnd, "b");
  const auto c1 = g.add_node(isa::Opcode::kAnd, "c1");
  const auto c2 = g.add_node(isa::Opcode::kAnd, "c2");
  const auto d = g.add_node(isa::Opcode::kAnd, "d");
  g.add_edge(a, b);
  g.add_edge(b, d);
  g.add_edge(a, c1);
  g.add_edge(c1, c2);
  g.add_edge(c2, d);
  const dfg::PathInfo path =
      dfg::longest_path(g, [](dfg::NodeId) { return 1.0; });
  dfg::NodeSet bset(5);
  bset.insert(b);
  // b: earliest start 1, latest finish 3 within a length-4 schedule.
  EXPECT_DOUBLE_EQ(
      MeritEngine::max_allowable_cycles(g, bset, path, /*tet=*/4), 2.0);
  // A longer actual schedule (resource stalls) widens the window.
  EXPECT_DOUBLE_EQ(
      MeritEngine::max_allowable_cycles(g, bset, path, /*tet=*/6), 4.0);
}

TEST_F(MeritTest, LocalityUnawareTreatsAllAsCritical) {
  params_.locality_aware = false;
  // Non-critical chain still gets the full hardware boost under SI rules.
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAnd);
  dfg::NodeSet critical(3);  // empty — but SI must ignore this
  const PheromoneState state = run_update(g, {1, 1, 1}, critical, 3);
  for (dfg::NodeId v = 0; v < 3; ++v)
    EXPECT_GT(state.merit(v, 1), state.merit(v, 0));
}

TEST_F(MeritTest, FasterOptionPreferredWhenItSavesACycle) {
  // Synthetic two-option cell where the slow variant pushes the chain over
  // the 10 ns cycle boundary: HW-1 = 6 ns, HW-2 = 2 ns.  With the
  // neighbour on HW-1, x on HW-1 gives 12 ns (2 cycles, saving 0) while
  // x on HW-2 gives 8 ns (1 cycle, saving 1).  Case 4 must prefer HW-2.
  lib_.set_hardware_options(
      isa::Opcode::kAddu,
      {{hw::ImplKind::kHardware, "HW-1", 6.0, 500.0},
       {hw::ImplKind::kHardware, "HW-2", 2.0, 1500.0}});
  const dfg::Graph g = testing::make_chain(2, isa::Opcode::kAddu);
  dfg::NodeSet critical = dfg::NodeSet::of(2, {0, 1});
  const PheromoneState state = run_update(g, {1, 1}, critical, 2);
  for (dfg::NodeId v = 0; v < 2; ++v)
    EXPECT_GT(state.merit(v, 2), state.merit(v, 1));
}

TEST_F(MeritTest, CheaperOptionPreferredWhenCyclesTie) {
  // Both adder options keep the real Table 5.1.1 chain at one cycle, so the
  // area ratio must favour the small HW-1 cell.
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAddu);
  dfg::NodeSet critical = dfg::NodeSet::of(3, {0, 1, 2});
  const PheromoneState state = run_update(g, {2, 2, 2}, critical, 3);
  for (dfg::NodeId v = 0; v < 3; ++v)
    EXPECT_GE(state.merit(v, 1), state.merit(v, 2));
}

// ---------------------------------------------------------------------------
// Equivalence property: the per-component merit update (isolated operations
// skip grouping, component terms memoized per iteration, vS_x composed from
// its components) must reproduce the per-node update bit for bit.

/// How often each branch of the update ran; the property is vacuous without.
struct Branches {
  /// A hardware-capable x outside every component with vS_x = {x}.
  int isolated = 0;
  /// A hardware-chosen x in a component, evaluated at an option it did not
  /// choose.
  int other_option = 0;
  /// A software (or unchosen) x feeding a component.
  int feeds = 0;
  /// A software (or unchosen) x joining two or more components.
  int joins_many = 0;
  /// Fig 4.3.7's cases 1-4.
  int cases[4] = {};
  /// Case 4 off the critical set with an option that saves cycles but
  /// overruns Max_AEC, so the window's width scales its merit.
  int window_decides = 0;
};

/// Per-node reference update: Fig 4.3.7's case logic with vS_x regrown by
/// reference_group for every operation and Max_AEC recounted over its
/// members.  Also counts the branches the fast update takes for each x.
void reference_update(PheromoneState& pheromone, const hw::GPlus& gplus,
                      const isa::IsaFormat& format,
                      const dfg::Reachability& reach, hw::ClockSpec clock,
                      const ExplorerParams& p, const MeritInputs& inputs,
                      Branches& seen) {
  const dfg::Graph& graph = gplus.graph();
  const std::size_t n = graph.num_nodes();
  auto chose_hardware = [&](dfg::NodeId u) {
    const int o = inputs.chosen[u];
    return o >= 0 && gplus.table(u).is_hardware(static_cast<std::size_t>(o));
  };
  dfg::NodeSet hardware(n);
  for (dfg::NodeId v = 0; v < n; ++v)
    if (chose_hardware(v)) hardware.insert(v);
  std::vector<int> label(n, -1);
  const std::vector<dfg::NodeSet> components =
      dfg::weakly_connected_components(graph, hardware);
  for (std::size_t c = 0; c < components.size(); ++c)
    components[c].for_each(
        [&](dfg::NodeId v) { label[v] = static_cast<int>(c); });

  for (dfg::NodeId x = 0; x < n; ++x) {
    const hw::IoTableView table = gplus.table(x);
    for (std::size_t o = 0; o < table.size(); ++o) {
      if (!table.is_hardware(o))
        pheromone.scale_merit(x, o, table.option(o).delay);
    }
    if (table.has_hardware()) {
      const VirtualCandidate cand = testing::reference_group(
          gplus, format, reach, x, inputs.chosen, clock);
      // Without a timing cap, case 3 is settled before any option is
      // evaluated.
      const bool evaluated = format.max_ise_latency_cycles > 0 ||
                             !(cand.io_violation || cand.convex_violation);
      if (chose_hardware(x)) {
        seen.other_option +=
            cand.size() > 1 && table.num_hardware() > 1 && evaluated;
      } else {
        std::vector<int> adjacent;
        for (const dfg::NodeId u : graph.preds(x))
          if (label[u] >= 0) adjacent.push_back(label[u]);
        bool feeds = false;
        for (const dfg::NodeId u : graph.succs(x)) {
          if (label[u] < 0) continue;
          feeds = true;
          adjacent.push_back(label[u]);
        }
        std::sort(adjacent.begin(), adjacent.end());
        adjacent.erase(std::unique(adjacent.begin(), adjacent.end()),
                       adjacent.end());
        seen.isolated += adjacent.empty();
        seen.feeds += feeds;
        seen.joins_many += adjacent.size() >= 2;
      }
      const bool x_critical = !p.locality_aware || inputs.critical->contains(x);
      const bool cand_critical =
          !p.locality_aware || cand.members.intersects(*inputs.critical);
      if (x_critical) {
        ++seen.cases[0];
        for (std::size_t j = 0; j < table.size(); ++j)
          if (table.is_hardware(j))
            pheromone.scale_merit(x, j, 1.0 / p.beta_cp);
      }
      if (cand.size() == 1) {
        ++seen.cases[1];
        for (std::size_t j = 0; j < table.size(); ++j)
          if (table.is_hardware(j)) pheromone.scale_merit(x, j, p.beta_size);
      } else if (cand.io_violation || cand.convex_violation ||
                 cand.timing_violation) {
        ++seen.cases[2];
        for (std::size_t j = 0; j < table.size(); ++j) {
          if (!table.is_hardware(j)) continue;
          if (cand.io_violation) pheromone.scale_merit(x, j, p.beta_io);
          if (cand.convex_violation) pheromone.scale_merit(x, j, p.beta_convex);
          if (cand.timing_violation) pheromone.scale_merit(x, j, p.beta_timing);
        }
      } else {
        ++seen.cases[3];
        int best_cycles = std::numeric_limits<int>::max();
        double area_max = 0.0;
        for (std::size_t j = 0; j < table.size(); ++j) {
          if (!table.is_hardware(j)) continue;
          best_cycles = std::min(best_cycles, cand.per_option[j].cycles);
          area_max = std::max(area_max, cand.per_option[j].area);
        }
        const double max_aec = MeritEngine::max_allowable_cycles(
            graph, cand.members, *inputs.path, inputs.tet);
        for (std::size_t j = 0; j < table.size(); ++j) {
          if (!table.is_hardware(j)) continue;
          const auto& eval = cand.per_option[j];
          const double saving = std::max(0.0, cand.sw_seq_cycles - eval.cycles);
          pheromone.scale_merit(x, j, saving);
          if (saving <= 0.0) continue;
          const double area_ratio =
              eval.area > 0.0 ? area_max / eval.area : 1.0;
          if (cand_critical) {
            pheromone.scale_merit(
                x, j,
                eval.cycles == best_cycles
                    ? area_ratio
                    : 1.0 / (1.0 + eval.cycles - best_cycles));
          } else {
            const bool overruns = static_cast<double>(eval.cycles) > max_aec;
            seen.window_decides += overruns;
            pheromone.scale_merit(
                x, j,
                overruns ? 1.0 / (1.0 + eval.cycles - max_aec) : area_ratio);
          }
        }
      }
    }
    pheromone.normalize_merit(x);
  }
}

TEST(MeritEquivalence, MatchesPerNodeReferenceOnRandomBlocks) {
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();
  // One scratch across every trial, as across an exploration's rounds.
  GroupingScratch scratch;
  Rng rng(1607);
  Branches seen;
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = 1 + rng.next_below(70);
    const double edge_prob = 0.2 + 0.7 * rng.next_double();
    const dfg::Graph g = testing::random_block(n, rng, edge_prob);
    const hw::GPlus gplus(g, lib);
    const dfg::Reachability reach(g);
    isa::IsaFormat format;
    format.reg_file = {static_cast<int>(2 + rng.next_below(8)),
                       static_cast<int>(1 + rng.next_below(4))};
    format.max_ise_latency_cycles = static_cast<int>(rng.next_below(3));
    ExplorerParams params;
    params.locality_aware = rng.next_double() < 0.7;
    // Every paper cell is faster than the paper's 10 ns cycle, so there a
    // candidate needs no more cycles than its longest member chain and
    // always fits its Max_AEC window.  Most trials clock faster and most
    // draws below flatten the path levels, so some candidates overrun.
    hw::ClockSpec clock;
    if (rng.next_double() < 0.7)
      clock.period_ns = 2.0 + 2.0 * rng.next_double();
    const MeritEngine engine(gplus, format, params, reach, clock);
    const dfg::PathInfo dependence = dfg::longest_path(
        g, [&](dfg::NodeId v) { return gplus.software_cycles(v); });

    // Both states start equal and are compared after every update, so each
    // later update also starts from equal states.
    PheromoneState got(gplus, params);
    PheromoneState want(gplus, params);
    for (int draw = 0; draw < 5; ++draw) {
      // Mixed picks: unchosen (-1), software, and random hardware options.
      const double p_software = 0.6 * rng.next_double();
      std::vector<int> chosen(n);
      for (dfg::NodeId v = 0; v < n; ++v) {
        const hw::IoTableView table = gplus.table(v);
        const double r = rng.next_double();
        if (r < 0.1) {
          chosen[v] = -1;
        } else if (r < 0.1 + p_software || !table.has_hardware()) {
          chosen[v] = static_cast<int>(table.first_software());
        } else {
          chosen[v] = static_cast<int>(
              table.num_software() +
              rng.next_below(static_cast<std::uint32_t>(table.num_hardware())));
        }
      }
      const double p_critical = 0.6 * rng.next_double() * rng.next_double();
      dfg::NodeSet critical(n);
      for (dfg::NodeId v = 0; v < n; ++v)
        if (rng.next_double() < p_critical) critical.insert(v);
      // Flattened levels: every node on one of one or two levels, without
      // slack, so windows are one or two cycles wide.
      dfg::PathInfo levels;
      if (rng.next_double() < 0.7) {
        levels.earliest.resize(n);
        levels.latest.resize(n);
        const std::uint32_t num_levels = 1 + rng.next_below(2);
        for (dfg::NodeId v = 0; v < n; ++v) {
          levels.earliest[v] = static_cast<double>(rng.next_below(num_levels));
          levels.latest[v] = levels.earliest[v];
        }
        levels.length = static_cast<double>(num_levels);
      }
      const dfg::PathInfo& path = levels.earliest.empty() ? dependence : levels;
      MeritInputs inputs;
      inputs.chosen = chosen;
      inputs.critical = &critical;
      inputs.path = &path;
      inputs.tet = std::max(0, static_cast<int>(path.length) - 2 +
                                   static_cast<int>(rng.next_below(5)));

      engine.update(got, inputs, scratch);
      reference_update(want, gplus, format, reach, clock, params, inputs,
                       seen);
      for (dfg::NodeId v = 0; v < n; ++v) {
        for (std::size_t o = 0; o < got.num_options(v); ++o) {
          ASSERT_EQ(got.merit(v, o), want.merit(v, o))
              << "trial " << trial << " draw " << draw << " node " << v
              << " option " << o;
        }
      }
    }
  }
  EXPECT_GT(seen.isolated, 100);
  EXPECT_GT(seen.other_option, 100);
  EXPECT_GT(seen.feeds, 100);
  EXPECT_GT(seen.joins_many, 100);
  for (int c = 0; c < 4; ++c) EXPECT_GT(seen.cases[c], 100) << "case " << c + 1;
  EXPECT_GT(seen.window_decides, 30);
}

}  // namespace
}  // namespace isex::core
