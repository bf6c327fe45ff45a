// Structural and functional validation of the extended kernel suite
// (AES GF(2^8), SHA-256 message schedule, Sobel).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>

#include "bench_suite/extended.hpp"
#include "exec/evaluator.hpp"
#include "flow/design_flow.hpp"

namespace isex {
namespace {

using bench_suite::ExtraBenchmark;
using bench_suite::OptLevel;

isa::ParsedBlock block_of(ExtraBenchmark b, OptLevel level,
                          std::string_view name) {
  return isa::parse_tac(bench_suite::extra_kernel_source(b, level, name));
}

// ----------------------------------------------------------------- shape --

class ExtraMatrix
    : public ::testing::TestWithParam<std::tuple<ExtraBenchmark, OptLevel>> {};

TEST_P(ExtraMatrix, BlocksWellFormed) {
  const auto [benchmark, level] = GetParam();
  const auto program = bench_suite::make_extra_program(benchmark, level);
  EXPECT_FALSE(program.blocks.empty());
  for (const auto& block : program.blocks) {
    EXPECT_GT(block.graph.num_nodes(), 0u);
    EXPECT_TRUE(block.graph.is_acyclic());
    EXPECT_GT(block.exec_count, 0u);
  }
}

TEST_P(ExtraMatrix, FlowFindsSpeedup) {
  const auto [benchmark, level] = GetParam();
  const auto program = bench_suite::make_extra_program(benchmark, level);
  flow::FlowConfig config;
  config.machine = sched::MachineConfig::make(2, {6, 3});
  config.repeats = 2;
  config.seed = 77;
  const auto result =
      run_design_flow(program, hw::HwLibrary::paper_default(), config);
  EXPECT_LT(result.final_time(), result.base_time());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExtraMatrix,
    ::testing::Combine(::testing::ValuesIn(bench_suite::all_extra_benchmarks()),
                       ::testing::Values(OptLevel::kO0, OptLevel::kO3)));

// ------------------------------------------------------------- semantics --

std::uint32_t xtime_ref(std::uint32_t a) {
  const std::uint32_t shifted = (a << 1) & 0xFF;
  return (a & 0x80) ? (shifted ^ 0x1B) : shifted;
}

std::uint32_t gf_mult_ref(std::uint32_t a, std::uint32_t b) {
  std::uint32_t acc = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) acc ^= a;
    a = xtime_ref(a);
    b >>= 1;
  }
  return acc;
}

TEST(AesSemantics, UnrolledPairAdvancesGfMultiply) {
  const auto block = block_of(ExtraBenchmark::kAes, OptLevel::kO3,
                              "aes_gfmul_x2");
  // Run the 2-step block four times == full 8-step multiply.
  for (const auto& [a0, b0] : {std::pair{0x57u, 0x83u}, std::pair{0x02u, 0x6Eu},
                              std::pair{0xFFu, 0xFFu}}) {
    std::uint32_t a = a0;
    std::uint32_t b = b0;
    std::uint32_t acc = 0;
    for (int i = 0; i < 4; ++i) {
      exec::Evaluator ev;
      ev.set("a", a);
      ev.set("b", b);
      ev.set("acc", acc);
      ev.run(block);
      a = ev.get("a2");
      b = ev.get("b2");
      acc = ev.get("acc2");
    }
    EXPECT_EQ(acc, gf_mult_ref(a0, b0)) << a0 << "*" << b0;
  }
}

TEST(AesSemantics, O0XtimeMatchesReference) {
  const auto block = block_of(ExtraBenchmark::kAes, OptLevel::kO0, "aes_xtime");
  for (std::uint32_t a = 0; a < 256; a += 13) {
    exec::Evaluator ev;
    ev.set("a", a);
    ev.run(block);
    EXPECT_EQ(ev.get("a2"), xtime_ref(a)) << a;
  }
}

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

TEST(Sha256Semantics, ScheduleWordMatchesReference) {
  const auto block = block_of(ExtraBenchmark::kSha256, OptLevel::kO3,
                              "sha_schedule");
  const std::uint32_t w15 = 0x6a09e667u;
  const std::uint32_t w2 = 0xbb67ae85u;
  const std::uint32_t w7 = 0x3c6ef372u;
  const std::uint32_t w16old = 0xa54ff53au;
  exec::Evaluator ev;
  ev.set("w15", w15);
  ev.set("w2", w2);
  ev.set("w7", w7);
  ev.set("w16old", w16old);
  ev.run(block);
  const std::uint32_t sig0 = rotr(w15, 7) ^ rotr(w15, 18) ^ (w15 >> 3);
  const std::uint32_t sig1 = rotr(w2, 17) ^ rotr(w2, 19) ^ (w2 >> 10);
  EXPECT_EQ(ev.get("w16"), w16old + sig0 + w7 + sig1);
}

TEST(Sha256Semantics, O0SplitMatchesO3) {
  const std::uint32_t w15 = 0x12345678u, w2 = 0x9abcdef0u, w7 = 7, w16old = 99;
  exec::Evaluator ev;
  ev.set("w15", w15);
  ev.set("w2", w2);
  ev.set("w7", w7);
  ev.set("w16old", w16old);
  ev.run(block_of(ExtraBenchmark::kSha256, OptLevel::kO0, "sha_sigma0"));
  ev.run(block_of(ExtraBenchmark::kSha256, OptLevel::kO0, "sha_sigma1"));
  ev.run(block_of(ExtraBenchmark::kSha256, OptLevel::kO0, "sha_sum"));
  const std::uint32_t sig0 = rotr(w15, 7) ^ rotr(w15, 18) ^ (w15 >> 3);
  const std::uint32_t sig1 = rotr(w2, 17) ^ rotr(w2, 19) ^ (w2 >> 10);
  EXPECT_EQ(ev.get("w16"), w16old + sig0 + w7 + sig1);
}

TEST(SobelSemantics, GradientMagnitudeMatchesReference) {
  const auto block = block_of(ExtraBenchmark::kSobel, OptLevel::kO3,
                              "sobel_pixel");
  const std::int32_t window[3][3] = {{10, 20, 30}, {40, 50, 60}, {70, 80, 90}};
  exec::Evaluator ev;
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c)
      ev.set(std::string{'p', static_cast<char>('0' + r),
                         static_cast<char>('0' + c)},
             static_cast<std::uint32_t>(window[r][c]));
  ev.run(block);
  const std::int32_t gx = (window[0][2] - window[0][0]) +
                          2 * (window[1][2] - window[1][0]) +
                          (window[2][2] - window[2][0]);
  const std::int32_t gy = (window[2][0] - window[0][0]) +
                          2 * (window[2][1] - window[0][1]) +
                          (window[2][2] - window[0][2]);
  EXPECT_EQ(ev.get("mag"),
            static_cast<std::uint32_t>(std::abs(gx) + std::abs(gy)));
}

TEST(SobelSemantics, AbsoluteValueOfNegativeGradient) {
  const auto block = block_of(ExtraBenchmark::kSobel, OptLevel::kO0,
                              "sobel_mag");
  exec::Evaluator ev;
  ev.set("gx", static_cast<std::uint32_t>(-37));
  ev.set("gy", 12);
  ev.run(block);
  EXPECT_EQ(ev.get("mag"), 49u);
}

}  // namespace
}  // namespace isex
