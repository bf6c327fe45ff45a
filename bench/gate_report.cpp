#include "gate_report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace isex::gate {

bool scaling_valid() {
  return std::thread::hardware_concurrency() >= kScalingCores;
}

int timing_repeats(int fallback) {
  if (const char* env = std::getenv("ISEX_BENCH_TIMING_REPEATS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return fallback;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Timing::min() const {
  return *std::min_element(seconds.begin(), seconds.end());
}

double Timing::median() const {
  std::vector<double> s = seconds;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

Fields& Fields::digest(std::string_view key, std::uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(value));
  return string(key, hex);
}

Fields& Fields::timing(std::string_view prefix, const Timing& timing) {
  const std::string p(prefix);
  add(p + "_each", [&](trace::JsonWriter& json) {
    json.begin_array();
    for (const double s : timing.seconds) json.fixed(s, 4);
    json.end_array();
  });
  fixed(p + "_min", timing.min(), 4);
  return fixed(p + "_median", timing.median(), 4);
}

void Fields::write_members(trace::JsonWriter& json) const {
  for (const auto& [key, value] : members_) json.key(key).raw(value);
}

void Fields::write(trace::JsonWriter& json) const {
  json.begin_object();
  write_members(json);
  json.end_object();
}

Report::Report(std::string bench) : bench_(std::move(bench)) {}

bool Report::identity(std::string_view name, bool pass) {
  return add_gate({std::string(name), "identity", 0.0, 0.0, true, pass});
}

bool Report::floor(std::string_view name, double value, double bound,
                   bool enforced) {
  return add_gate(
      {std::string(name), "floor", value, bound, enforced, value >= bound});
}

bool Report::ceiling(std::string_view name, double value, double bound,
                     bool enforced) {
  return add_gate(
      {std::string(name), "ceiling", value, bound, enforced, value <= bound});
}

bool Report::add_gate(Gate gate) {
  gates_.push_back(std::move(gate));
  return gates_.back().pass;
}

int Report::finish() const {
  std::string doc;
  trace::JsonWriter json(doc);
  json.begin_object().key("bench").string(bench_);
  params_.write_members(json);
  json.key("rows").begin_array();
  for (const Fields& row : rows_) {
    json.newline();
    row.write(json);
  }
  json.newline().end_array().key("gates").begin_array();
  for (const Gate& gate : gates_) {
    json.newline().begin_object().key("name").string(gate.name)
        .key("kind").string(gate.kind);
    if (gate.is_identity())
      json.key("value").boolean(gate.pass).key("bound").boolean(true);
    else
      json.key("value").number(gate.value).key("bound").number(gate.bound);
    json.key("enforced").boolean(gate.enforced).key("pass").boolean(gate.pass)
        .end_object();
  }
  json.newline().end_array().end_object().newline();

  const std::string path = "BENCH_" + bench_ + ".json";
  int status = 0;
  if (std::ofstream out(path); out << doc) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    status = 1;
  }
  for (const Gate& gate : gates_) {
    if (gate.pass) continue;
    std::fprintf(stderr, "%s: %s gate '%s'",
                 gate.enforced ? "FAIL" : "unenforced", gate.kind,
                 gate.name.c_str());
    if (!gate.is_identity())
      std::fprintf(stderr, ": %g against %g", gate.value, gate.bound);
    std::fputc('\n', stderr);
    if (gate.enforced) status = 1;
  }
  return status;
}

}  // namespace isex::gate
