#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench_suite/extended.hpp"
#include "bench_suite/kernels.hpp"
#include "isa/tac_parser.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t plan_units(double seconds, double unit_seconds,
                       std::size_t floor) {
  const auto units =
      static_cast<std::size_t>(std::lround(seconds / unit_seconds));
  return std::max(floor, units);
}

void Report::metric(std::string name, double value, std::string unit) {
  for (Metric& m : metrics_) {
    if (m.name != name) continue;
    m.value = value;
    m.unit = std::move(unit);
    return;
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::job_failed(const std::string& why) {
  ++attempted_;
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "perfbench: job failed: %s\n", why.c_str());
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit of the measured double.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

bool percentile_reportable(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so under
  // run.py it would report the Python parent's peak when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

int pool_width() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, cores - 1);
}

void apply_thread_budget(int server_workers) {
  isex::runtime::ThreadPool::set_default_jobs(pool_width());
  std::fprintf(stderr,
               "perfbench: cores %u, pool width %d (+1 helping caller), "
               "server workers %d\n",
               std::thread::hardware_concurrency(), pool_width(),
               server_workers);
}

namespace {

SuiteProgram build_program(std::string label,
                           std::vector<isex::bench_suite::KernelBlockDef> defs) {
  SuiteProgram out;
  out.label = std::move(label);
  out.program.name = out.label;
  for (const isex::bench_suite::KernelBlockDef& def : defs) {
    isex::Expected<isex::isa::ParsedBlock> parsed =
        isex::isa::parse_tac_checked(def.tac);
    if (!parsed)
      throw std::runtime_error(out.label + "/" + def.name + ": " +
                               parsed.error().to_string());
    out.program.blocks.push_back(isex::flow::ProfiledBlock{
        def.name, std::move(parsed->graph), def.exec_count});
    out.sources.push_back(def.tac);
  }
  return out;
}

}  // namespace

std::vector<SuiteProgram> load_suite(bool o0, bool o3, bool extended) {
  namespace bs = isex::bench_suite;
  std::vector<bs::OptLevel> levels;
  if (o0) levels.push_back(bs::OptLevel::kO0);
  if (o3) levels.push_back(bs::OptLevel::kO3);
  std::vector<SuiteProgram> out;
  for (const bs::Benchmark b : bs::all_benchmarks())
    for (const bs::OptLevel level : levels)
      out.push_back(build_program(
          std::string(bs::name(b)) + "-" + std::string(bs::name(level)),
          bs::kernel_blocks(b, level)));
  if (extended)
    for (const bs::ExtraBenchmark b : bs::all_extra_benchmarks())
      for (const bs::OptLevel level : levels)
        out.push_back(build_program(
            std::string(bs::name(b)) + "-" + std::string(bs::name(level)),
            bs::extra_kernel_blocks(b, level)));
  return out;
}

std::vector<isex::sched::MachineConfig> paper_machines() {
  using isex::sched::MachineConfig;
  return {
      MachineConfig::make(2, {4, 2}), MachineConfig::make(2, {6, 3}),
      MachineConfig::make(3, {6, 3}), MachineConfig::make(3, {8, 4}),
      MachineConfig::make(4, {8, 4}), MachineConfig::make(4, {10, 5}),
  };
}

isex::dfg::Graph random_dag(std::size_t n, isex::Rng& rng) {
  using isex::isa::Opcode;
  static constexpr Opcode kOps[] = {Opcode::kAddu, Opcode::kXor, Opcode::kAnd,
                                    Opcode::kSrl,  Opcode::kSubu, Opcode::kOr,
                                    Opcode::kSll,  Opcode::kSltu};
  constexpr double kEdgeProb = 0.6;
  isex::dfg::Graph g;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = g.add_node(kOps[i % std::size(kOps)], "r" + std::to_string(i));
    int preds = 0;
    for (int k = 0; i > 0 && k < 2; ++k) {
      if (rng.next_double() >= kEdgeProb) continue;
      const auto p = static_cast<isex::dfg::NodeId>(
          rng.next_below(static_cast<std::uint32_t>(i)));
      if (!g.has_edge(p, v)) {
        g.add_edge(p, v);
        ++preds;
      }
    }
    g.set_extern_inputs(v, preds >= 2 ? 0 : 2 - preds);
  }
  for (isex::dfg::NodeId v = 0; v < g.num_nodes(); ++v)
    if (g.succs(v).empty()) g.set_live_out(v, true);
  return g;
}

std::uint64_t mix_digest(std::uint64_t digest, std::uint64_t value) {
  digest ^= value + 0x9e3779b97f4a7c15ULL + (digest << 6) + (digest >> 2);
  return digest;
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
