#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace isex::sched {
namespace {

TEST(ScheduleHelpers, NodeLatency) {
  dfg::Graph g;
  const auto normal = g.add_node(isa::Opcode::kAddu, "a");
  dfg::IseInfo info;
  info.latency_cycles = 3;
  const auto ise = g.add_ise_node(info, "ISE");
  EXPECT_EQ(node_latency(g, normal), 1);
  EXPECT_EQ(node_latency(g, ise), 3);
}

TEST(ScheduleHelpers, ReadPortsOfRegularOps) {
  dfg::Graph g;
  const auto a = g.add_node(isa::Opcode::kAddu, "a");
  g.set_extern_inputs(a, 2);
  EXPECT_EQ(read_ports_used(g, a), 2);
  const auto b = g.add_node(isa::Opcode::kAddiu, "b");  // immediate form
  g.add_edge(a, b);
  EXPECT_EQ(read_ports_used(g, b), 1);
  // Operand count caps: 3 producers but a 2-source opcode reads 2 ports.
  const auto c = g.add_node(isa::Opcode::kXor, "c");
  g.add_edge(a, c);
  g.add_edge(b, c);
  g.set_extern_inputs(c, 1);
  EXPECT_EQ(read_ports_used(g, c), 2);
}

TEST(ScheduleHelpers, PortsOfIseNodes) {
  dfg::Graph g;
  dfg::IseInfo info;
  info.num_inputs = 4;
  info.num_outputs = 2;
  const auto v = g.add_ise_node(info, "ISE");
  EXPECT_EQ(read_ports_used(g, v), 4);
  EXPECT_EQ(write_ports_used(g, v), 2);
}

TEST(ScheduleHelpers, WritePortsOfStoresAndBranches) {
  dfg::Graph g;
  const auto st = g.add_node(isa::Opcode::kSw, "");
  const auto br = g.add_node(isa::Opcode::kBne, "");
  const auto add = g.add_node(isa::Opcode::kAddu, "x");
  EXPECT_EQ(write_ports_used(g, st), 0);
  EXPECT_EQ(write_ports_used(g, br), 0);
  EXPECT_EQ(write_ports_used(g, add), 1);
}

TEST(RespectsDependences, DetectsViolation) {
  const dfg::Graph g = testing::make_chain(3);
  Schedule good;
  good.slot = {0, 1, 2};
  good.cycles = 3;
  EXPECT_TRUE(respects_dependences(g, good));
  Schedule bad;
  bad.slot = {0, 0, 1};  // node 1 issues with its producer
  bad.cycles = 2;
  EXPECT_FALSE(respects_dependences(g, bad));
}

TEST(RespectsDependences, MultiCycleProducer) {
  dfg::Graph g;
  dfg::IseInfo info;
  info.latency_cycles = 2;
  const auto ise = g.add_ise_node(info, "ISE");
  const auto user = g.add_node(isa::Opcode::kAddu, "u");
  g.add_edge(ise, user);
  Schedule s;
  s.slot = {0, 1};  // user issues before the 2-cycle ISE finishes
  s.cycles = 2;
  EXPECT_FALSE(respects_dependences(g, s));
  s.slot = {0, 2};
  s.cycles = 3;
  EXPECT_TRUE(respects_dependences(g, s));
}

TEST(RespectsDependences, SizeMismatchIsInvalid) {
  const dfg::Graph g = testing::make_chain(2);
  Schedule s;
  s.slot = {0};
  EXPECT_FALSE(respects_dependences(g, s));
}

}  // namespace
}  // namespace isex::sched
