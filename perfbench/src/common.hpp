// Shared pieces of the end-to-end benchmark: options, the result record
// printed as the last stdout line, sample statistics and the thread budget.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "flow/program.hpp"
#include "sched/machine_config.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The seed whose result digests are pinned in the workload sources.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for logs and span dumps.
  std::string scratch_dir = ".bench_build/perfbench-run";
};

double seconds_since(Clock::time_point start);

/// Number of work units that take about `seconds` on the sizing host, given
/// the measured seconds per unit there; at least `floor`.
std::size_t plan_units(double seconds, double unit_seconds, std::size_t floor);

/// Outcome of one benchmark run: the metrics of the selected mode plus the
/// job accounting and the output checks.
class Report {
 public:
  /// Sets a metric; setting a name again replaces its value in place.
  void metric(std::string name, double value, std::string unit);
  /// Counts one job; a failed job also records why (printed to stderr).
  void job_ok() { ++attempted_; }
  void job_failed(const std::string& why);
  /// An output check that is not tied to one job (e.g. a pinned digest).
  void check(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The single-line JSON result object.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// --- sample statistics ----------------------------------------------------

/// Median (mean of the two middle samples for even sizes); 0 when empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> samples, double q);

/// The reporting rule: a percentile q is reported only when at least ten
/// samples lie strictly beyond its rank, i.e. n - ceil(q * n) >= 10.
bool percentile_reportable(std::size_t n, double q);

double mean(const std::vector<double>& samples);

// --- set-up timing --------------------------------------------------------

/// Set-ups timed per burst, and bursts per call of timed_setups().  A
/// workload calls it once before its warm-up and once after every timed
/// unit, and reports the median of all the set-ups.
inline constexpr int kSetupBurst = 7;
inline constexpr int kSetupBursts = 4;
/// Untimed set-ups run this long before each burst: the first set-ups after
/// a parallel job run up to twice as slow.
inline constexpr double kSetupWarmSeconds = 0.01;

/// Runs kSetupBursts bursts of `setup`, each after a short sleep and
/// kSetupWarmSeconds of untimed set-ups, appending each timed duration to
/// `times`; then returns one more set-up's result.  On a shared VM a
/// set-up's time falls in two modes about 1.6x apart that switch every few
/// seconds, so a burst sits in one mode; bursts spread through the whole
/// run sample both, in the proportion the host gives the run.
template <typename Fn>
auto timed_setups(std::vector<double>& times, Fn setup) {
  for (int b = 0; b < kSetupBursts; ++b) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const Clock::time_point warm = Clock::now();
    while (seconds_since(warm) < kSetupWarmSeconds) (void)setup();
    for (int r = 0; r < kSetupBurst; ++r) {
      const Clock::time_point t0 = Clock::now();
      (void)setup();
      times.push_back(seconds_since(t0));
    }
  }
  return setup();
}

/// Peak resident set size of this process, MiB (VmHWM).
double peak_rss_mb();

// --- thread budget --------------------------------------------------------

/// Width given to runtime::ThreadPool::default_pool(): one less than the
/// host's cores, because the thread that calls parallel_for helps execute
/// the fan-out, so busy threads stay at or below the core count.
int pool_width();

/// Applies pool_width() to the default pool and prints the budget.
void apply_thread_budget(int server_workers);

// --- inputs ---------------------------------------------------------------

/// One (benchmark, flavour) program of the 20-program suite, built with the
/// strict TAC parser (isa::parse_tac_checked).  Throws on a parse failure.
struct SuiteProgram {
  std::string label;  ///< e.g. "crc32-O3"
  isex::flow::ProfiledProgram program;
  /// TAC source per block, parallel to program.blocks.
  std::vector<std::string_view> sources;
};

/// The 7 paper benchmarks at `level`, then (when `extended`) the 3 extended
/// ones.
std::vector<SuiteProgram> load_suite(bool o0, bool o3, bool extended);

/// The six machines of the paper's Fig 5.2 sweep: issue width 2-4 with
/// (read, write) register-file ports from (4, 2) to (10, 5).
std::vector<isex::sched::MachineConfig> paper_machines();

/// A random DAG of `n` ALU nodes.  Each node after the first draws two
/// candidate predecessors among the earlier nodes, each kept with
/// probability 0.6; nodes with fewer than two predecessors take the rest of
/// their operands from outside, and sinks are live-out.
isex::dfg::Graph random_dag(std::size_t n, isex::Rng& rng);

/// Mixes `value` into a running 64-bit digest (order-sensitive).
std::uint64_t mix_digest(std::uint64_t digest, std::uint64_t value);

std::string hex64(std::uint64_t value);

}  // namespace perfbench
