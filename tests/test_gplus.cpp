#include "hwlib/gplus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "bench_suite/kernels.hpp"
#include "core/mi_explorer.hpp"
#include "dfg/analysis.hpp"
#include "mem/mem_stream.hpp"
#include "test_util.hpp"

namespace isex::hw {
namespace {

/// Checks G+'s flat layout against the graph it was built from: offsets are
/// the running sums of the option counts, the CSR edges are Graph's element
/// for element, and dense live-in ids are below num_live_ins() and equal
/// exactly when the raw ids are.
/// Returns the number of live-in operands seen.
std::size_t expect_layout_matches(const dfg::Graph& g,
                                  const std::string& name) {
  SCOPED_TRACE(name);
  const GPlus gp(g, HwLibrary::paper_default());
  EXPECT_EQ(gp.num_nodes(), g.num_nodes());
  std::size_t entries = 0;
  std::size_t operands = 0;
  // First sighting of a raw (or dense) id records its partner; every later
  // sighting must repeat it, so the renumbering is a bijection.
  std::map<int, std::uint32_t> dense_of;
  std::map<std::uint32_t, int> raw_of;
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(gp.offset(v), entries) << "node " << v;
    EXPECT_GE(gp.num_options(v), 1u) << "node " << v;
    EXPECT_EQ(gp.num_options(v), gp.offset(v + 1) - gp.offset(v))
        << "node " << v;
    entries += gp.num_options(v);

    EXPECT_TRUE(std::ranges::equal(gp.preds(v), g.preds(v))) << "node " << v;
    EXPECT_TRUE(std::ranges::equal(gp.succs(v), g.succs(v))) << "node " << v;

    const std::span<const int> raw = g.extern_input_ids(v);
    const std::span<const std::uint32_t> dense = gp.live_ins(v);
    EXPECT_EQ(dense.size(), raw.size()) << "node " << v;
    for (std::size_t i = 0; i < std::min(raw.size(), dense.size()); ++i) {
      EXPECT_LT(dense[i], gp.num_live_ins());
      EXPECT_EQ(dense_of.emplace(raw[i], dense[i]).first->second, dense[i]);
      EXPECT_EQ(raw_of.emplace(dense[i], raw[i]).first->second, raw[i]);
    }
    operands += raw.size();
  }
  EXPECT_EQ(gp.offset(static_cast<dfg::NodeId>(g.num_nodes())), entries);
  EXPECT_EQ(gp.num_entries(), entries);
  EXPECT_EQ(dense_of.size(), gp.num_live_ins());
  return operands;
}

TEST(GPlus, LayoutMatchesGraphOnSuiteCachedAndCollapsedBlocks) {
  int blocks = 0;
  std::size_t operands = 0;
  const dfg::Graph* hottest = nullptr;
  dfg::Graph cached;
  mem::CacheConfig small_cache;
  small_cache.l1 = {256, 1, 32, 1};
  std::vector<flow::ProfiledProgram> programs;
  for (const auto bm : bench_suite::all_benchmarks()) {
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3})
      programs.push_back(bench_suite::make_program(bm, level));
  }
  for (const flow::ProfiledProgram& prog : programs) {
    for (const flow::ProfiledBlock& block : prog.blocks) {
      operands += expect_layout_matches(block.graph,
                                        prog.name + "/" + block.name);
      ++blocks;
      if (hottest == nullptr) hottest = &block.graph;
      if (cached.empty()) {
        dfg::Graph annotated = block.graph;
        mem::annotate_graph(annotated, small_cache);
        for (dfg::NodeId v = 0; v < annotated.num_nodes(); ++v) {
          if (annotated.node(v).mem_latency > 1) cached = annotated;
        }
      }
    }
  }
  EXPECT_EQ(blocks, 47);
  EXPECT_GT(operands, 0u);

  // A cache-annotated block: some memory op charges its modeled latency.
  ASSERT_FALSE(cached.empty());
  expect_layout_matches(cached, "cache-annotated");

  // An ISE-collapsed block: the supernode takes its members' live-ins.
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const core::MultiIssueExplorer explorer(machine, format,
                                          HwLibrary::paper_default(), {});
  Rng rng(17);
  const core::ExplorationResult explored = explorer.explore(*hottest, rng);
  ASSERT_FALSE(explored.ises.empty());
  const core::ExploredIse& ise = explored.ises.front();
  dfg::IseInfo info;
  info.latency_cycles = ise.eval.latency_cycles;
  info.area = ise.eval.area;
  info.num_inputs = ise.in_count;
  info.num_outputs = ise.out_count;
  const dfg::Graph collapsed = hottest->collapse(ise.original_nodes, info);
  ASSERT_LT(collapsed.num_nodes(), hottest->num_nodes());
  expect_layout_matches(collapsed, "ISE-collapsed");
}

/// Checks the option layout the ACO loop relies on: option 0 is each
/// node's software option (1 cycle, a memory op's modeled latency or an ISE
/// supernode's latency, with area 0) and options 1..k−1 are the library's
/// hardware cells in order, bit for bit.  Returns the number of hardware
/// entries.
std::size_t expect_software_first(const dfg::Graph& g,
                                  const std::string& name) {
  SCOPED_TRACE(name);
  const HwLibrary lib = HwLibrary::paper_default();
  const GPlus gp(g, lib);
  EXPECT_EQ(gp.delays().size(), gp.num_entries());
  EXPECT_EQ(gp.areas().size(), gp.num_entries());
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::size_t hardware = 0;
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
    const dfg::Node& node = g.node(v);
    const std::span<const ImplOption> cells =
        node.is_ise ? std::span<const ImplOption>()
                    : lib.hardware_options(node.opcode);
    double software = 1.0;
    if (node.is_ise)
      software = static_cast<double>(node.ise.latency_cycles);
    else if (cells.empty() && node.mem_latency > 0)
      software = static_cast<double>(node.mem_latency);

    const std::size_t first = gp.offset(v);
    EXPECT_EQ(gp.num_options(v), 1 + cells.size()) << "node " << v;
    if (gp.num_options(v) != 1 + cells.size()) continue;
    EXPECT_EQ(bits(gp.delays()[first]), bits(software)) << "node " << v;
    EXPECT_EQ(bits(gp.areas()[first]), bits(0.0)) << "node " << v;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      EXPECT_EQ(bits(gp.delays()[first + 1 + k]), bits(cells[k].delay))
          << "node " << v << " option " << k + 1;
      EXPECT_EQ(bits(gp.areas()[first + 1 + k]), bits(cells[k].area))
          << "node " << v << " option " << k + 1;
    }
    hardware += cells.size();
    EXPECT_EQ(gp.hardware_capable(v), !cells.empty());
    EXPECT_EQ(gp.software_cycles(v), gp.delays()[first]);
  }
  return hardware;
}

TEST(GPlus, FlatOptionsAreSoftwareFirstOnSuiteAndCollapsedBlocks) {
  std::size_t hardware = 0;
  dfg::Graph collapsed;
  for (const auto bm : bench_suite::all_benchmarks()) {
    for (const auto level :
         {bench_suite::OptLevel::kO0, bench_suite::OptLevel::kO3}) {
      const flow::ProfiledProgram prog = bench_suite::make_program(bm, level);
      for (const flow::ProfiledBlock& block : prog.blocks) {
        hardware += expect_software_first(block.graph,
                                          prog.name + "/" + block.name);
        if (!collapsed.empty()) continue;
        // The first convex pair of adjacent hardware-capable nodes becomes
        // an ISE supernode, whose table is software-only.
        const dfg::Graph& g = block.graph;
        const GPlus gp(g, HwLibrary::paper_default());
        const dfg::Reachability reach(g);
        for (dfg::NodeId v = 0; v < g.num_nodes() && collapsed.empty(); ++v) {
          for (const dfg::NodeId s : g.succs(v)) {
            if (!gp.hardware_capable(v) || !gp.hardware_capable(s) ||
                reach.descendants(v).intersects(reach.ancestors(s)))
              continue;
            dfg::IseInfo info;
            info.latency_cycles = 2;
            info.num_inputs = 2;
            info.num_outputs = 1;
            collapsed =
                g.collapse(dfg::NodeSet::of(g.num_nodes(), {v, s}), info);
            break;
          }
        }
      }
    }
  }
  EXPECT_GT(hardware, 0u);
  ASSERT_FALSE(collapsed.empty());
  expect_software_first(collapsed, "ISE-collapsed");
}

TEST(GPlus, AnnotatesEligibleNodesWithHardware) {
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAddu);
  const HwLibrary lib = HwLibrary::paper_default();
  const GPlus gp(g, lib);
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(gp.hardware_capable(v));
    EXPECT_EQ(gp.num_options(v), 3u);  // SW + 2 HW adder options
  }
}

TEST(GPlus, SoftwareOptionPrecedesLibraryCells) {
  const dfg::Graph g = testing::make_chain(1, isa::Opcode::kAddu);
  const HwLibrary lib = HwLibrary::paper_default();
  const GPlus gp(g, lib);
  const auto cells = lib.hardware_options(isa::Opcode::kAddu);
  ASSERT_EQ(gp.num_options(0), 1 + cells.size());
  EXPECT_DOUBLE_EQ(gp.delays()[0], 1.0);  // 1-cycle software op
  EXPECT_DOUBLE_EQ(gp.areas()[0], 0.0);
  for (std::size_t k = 0; k < cells.size(); ++k) {
    EXPECT_DOUBLE_EQ(gp.delays()[1 + k], cells[k].delay);
    EXPECT_DOUBLE_EQ(gp.areas()[1 + k], cells[k].area);
  }
}

TEST(GPlus, MemoryNodesAreSoftwareOnly) {
  dfg::Graph g;
  const auto addr = g.add_node(isa::Opcode::kAddu, "addr");
  const auto load = g.add_node(isa::Opcode::kLw, "v");
  g.add_edge(addr, load);
  const GPlus gp(g, HwLibrary::paper_default());
  EXPECT_TRUE(gp.hardware_capable(addr));
  EXPECT_FALSE(gp.hardware_capable(load));
  EXPECT_EQ(gp.num_options(load), 1u);
}

TEST(GPlus, IseSupernodeGetsLatencyAsSoftwareDelay) {
  dfg::Graph g;
  dfg::IseInfo info;
  info.latency_cycles = 3;
  const auto v = g.add_ise_node(info, "ISE");
  const GPlus gp(g, HwLibrary::paper_default());
  EXPECT_FALSE(gp.hardware_capable(v));
  EXPECT_DOUBLE_EQ(gp.software_cycles(v), 3.0);
}

TEST(GPlus, SoftwareCyclesDefaultToOne) {
  const dfg::Graph g = testing::make_chain(2);
  const GPlus gp(g, HwLibrary::paper_default());
  EXPECT_DOUBLE_EQ(gp.software_cycles(0), 1.0);
}

TEST(GPlus, EmptyLibraryMakesEverythingSoftware) {
  const dfg::Graph g = testing::make_chain(4, isa::Opcode::kXor);
  HwLibrary lib;  // no entries at all
  const GPlus gp(g, lib);
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_FALSE(gp.hardware_capable(v));
}

}  // namespace
}  // namespace isex::hw
