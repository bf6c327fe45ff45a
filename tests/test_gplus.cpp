#include "hwlib/gplus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "bench_suite/kernels.hpp"
#include "core/mi_explorer.hpp"
#include "mem/mem_stream.hpp"
#include "test_util.hpp"

namespace isex::hw {
namespace {

/// Checks G+'s flat layout against the graph it was built from: offsets are
/// the running sums of the table sizes and table(v) views exactly those
/// entries, the CSR edges are Graph's element for element, and dense live-in
/// ids are below num_live_ins() and equal exactly when the raw ids are.
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
    const IoTableView table = gp.table(v);
    EXPECT_EQ(table.size(), gp.offset(v + 1) - gp.offset(v)) << "node " << v;
    for (std::size_t o = 0; o < table.size(); ++o)
      EXPECT_EQ(&table.option(o), &gp.entry(entries + o)) << "node " << v;
    entries += table.size();

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

TEST(GPlus, AnnotatesEligibleNodesWithHardware) {
  const dfg::Graph g = testing::make_chain(3, isa::Opcode::kAddu);
  const HwLibrary lib = HwLibrary::paper_default();
  const GPlus gp(g, lib);
  for (dfg::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(gp.hardware_capable(v));
    EXPECT_EQ(gp.table(v).size(), 3u);  // SW + 2 HW adder options
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
  EXPECT_EQ(gp.table(load).size(), 1u);
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
