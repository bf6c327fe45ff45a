#include "dfg/dot_export.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace isex::dfg {
namespace {

TEST(DotExport, EmitsAllNodesAndEdges) {
  const Graph g = testing::make_diamond();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph dfg"), std::string::npos);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NE(dot.find(testing::indexed_name("n", v) + " ["), std::string::npos);
  }
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3;"), std::string::npos);
}

TEST(DotExport, ShowsMnemonicsAndLabels) {
  Graph g;
  g.add_node(isa::Opcode::kXor, "crc2");
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("xor"), std::string::npos);
  EXPECT_NE(dot.find("crc2"), std::string::npos);
}

TEST(DotExport, MarksIoWhenRequested) {
  Graph g;
  const auto v = g.add_node(isa::Opcode::kAddu, "a");
  g.set_extern_inputs(v, 2);
  g.set_live_out(v, true);
  const std::string with_io = to_dot(g);
  EXPECT_NE(with_io.find("in:2"), std::string::npos);
  EXPECT_NE(with_io.find("live-out"), std::string::npos);
  DotOptions opts;
  opts.show_io = false;
  const std::string without_io = to_dot(g, opts);
  EXPECT_EQ(without_io.find("in:2"), std::string::npos);
}

TEST(DotExport, HighlightsGivenSets) {
  const Graph g = testing::make_chain(3);
  std::vector<NodeSet> highlights{NodeSet::of(3, {1})};
  DotOptions opts;
  opts.highlights = highlights;
  const std::string dot = to_dot(g, opts);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

TEST(DotExport, IseSupernodeRendersSummary) {
  Graph g;
  IseInfo info;
  info.latency_cycles = 2;
  info.member_labels = {"a", "b", "c"};
  g.add_ise_node(info, "ISE");
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("ISE(3 ops, 2c)"), std::string::npos);
}

TEST(DotExport, CustomGraphName) {
  const Graph g = testing::make_chain(1);
  DotOptions opts;
  opts.graph_name = "kernel42";
  EXPECT_NE(to_dot(g, opts).find("digraph kernel42"), std::string::npos);
}

}  // namespace
}  // namespace isex::dfg
