// isex_perfbench — end-to-end benchmark of the isex exploration stack.
//
//   isex_perfbench --workload paper_sweep|portfolio_mem|serve_mix
//                  [--seed N] [--seconds S] [--trace 0|1]
//   isex_perfbench --self-test
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Diagnostics go to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "selftest.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: isex_perfbench --workload paper_sweep|portfolio_mem|"
               "serve_mix [--seed N] [--seconds S] [--trace 0|1]\n"
               "       isex_perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else {
      return usage();
    }
  }

  // The benchmark's own arithmetic is checked on every run; a wrong
  // percentile or self time would silently corrupt every metric.
  if (!perfbench::run_self_test()) return 1;
  if (self_test_only) return 0;
  if (!(opts.seconds > 0.0)) return usage();

  using Runner = void (*)(const perfbench::Options&, perfbench::Report&);
  Runner runner = nullptr;
  if (opts.workload == "paper_sweep") runner = perfbench::run_paper_sweep;
  if (opts.workload == "portfolio_mem") runner = perfbench::run_portfolio_mem;
  if (opts.workload == "serve_mix") runner = perfbench::run_serve_mix;
  if (runner == nullptr) return usage();

  opts.scratch_dir += "-" + opts.workload;
  std::error_code ec;
  std::filesystem::remove_all(opts.scratch_dir, ec);
  std::filesystem::create_directories(opts.scratch_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 opts.scratch_dir.c_str());
    return 1;
  }

  perfbench::Report report;
  try {
    runner(opts, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  std::fflush(stderr);
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
