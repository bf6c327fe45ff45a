// Replays the fuzz corpus and every fuzz-found regression through the
// harness entry points as plain tests, so input-boundary crashes stay fixed
// without requiring a libFuzzer toolchain.  ISEX_FUZZ_DIR points at the
// source-tree fuzz/ directory (set by tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "fuzz_targets.hpp"

namespace isex {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> inputs_under(const fs::path& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class FuzzReplay : public ::testing::TestWithParam<fs::path> {};

TEST_P(FuzzReplay, TacParserHarnessSurvives) {
  const std::vector<std::uint8_t> bytes = read_bytes(GetParam());
  EXPECT_EQ(fuzz::run_tac_parser_input(bytes.data(), bytes.size()), 0);
}

TEST_P(FuzzReplay, RoundtripHarnessSurvives) {
  const std::vector<std::uint8_t> bytes = read_bytes(GetParam());
  EXPECT_EQ(fuzz::run_roundtrip_input(bytes.data(), bytes.size()), 0);
}

// Every corpus file (TAC kernels included — they are simply rejected specs)
// must also survive the cache-config harness.
TEST_P(FuzzReplay, CacheConfigHarnessSurvives) {
  const std::vector<std::uint8_t> bytes = read_bytes(GetParam());
  EXPECT_EQ(fuzz::run_cache_config_input(bytes.data(), bytes.size()), 0);
}

// ... and the request-line harness (kernel admission, cold and memoized).
TEST_P(FuzzReplay, ProtocolHarnessSurvives) {
  const std::vector<std::uint8_t> bytes = read_bytes(GetParam());
  EXPECT_EQ(fuzz::run_protocol_input(bytes.data(), bytes.size()), 0);
}

// ... and the persistent cache log harness (load, reference, append).
TEST_P(FuzzReplay, PersistLogHarnessSurvives) {
  const std::vector<std::uint8_t> bytes = read_bytes(GetParam());
  EXPECT_EQ(fuzz::run_persist_log_input(bytes.data(), bytes.size()), 0);
}

std::string test_name(const ::testing::TestParamInfo<fs::path>& info) {
  std::string name = info.param.filename().string();
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FuzzReplay,
    ::testing::ValuesIn(inputs_under(fs::path(ISEX_FUZZ_DIR) / "corpus")),
    test_name);

INSTANTIATE_TEST_SUITE_P(
    Regressions, FuzzReplay,
    ::testing::ValuesIn(inputs_under(fs::path(ISEX_FUZZ_DIR) / "regressions")),
    test_name);

// The harnesses must also tolerate degenerate buffers that never exist as
// corpus files (null data with zero size).
TEST(FuzzReplay, EmptyBuffer) {
  EXPECT_EQ(fuzz::run_tac_parser_input(nullptr, 0), 0);
  EXPECT_EQ(fuzz::run_roundtrip_input(nullptr, 0), 0);
  EXPECT_EQ(fuzz::run_cache_config_input(nullptr, 0), 0);
  EXPECT_EQ(fuzz::run_protocol_input(nullptr, 0), 0);
  EXPECT_EQ(fuzz::run_persist_log_input(nullptr, 0), 0);
}

}  // namespace
}  // namespace isex
