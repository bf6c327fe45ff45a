// The one report of every gate harness (bench/perf_*).  A Report collects
// the run's scalar parameters, one `rows` array of flat objects and one
// `gates` array, and writes BENCH_<bench>.json through trace::JsonWriter in
// the layout `isex sweep` writes, plus the gates:
//
//   {"bench":"antwalk","quick":true,...,"rows":[
//   {"name":"crc32","nodes":21,...},
//   ...
//   ],"gates":[
//   {"name":"walks/s","kind":"floor","value":366123,"bound":105000,
//    "enforced":true,"pass":true},
//   ...
//   ]}
//
// A gate is an identity (pass or fail), a floor (value >= bound) or a
// ceiling (value <= bound); an unenforced gate is recorded but never fails
// the run.  tools/bench_report.py renders every such file with one table.
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/json.hpp"

namespace isex::gate {

/// Scaling floors are enforced, and a runtime sweep's scaling stamped
/// valid, only on hosts that grant at least this many cores.
inline constexpr unsigned kScalingCores = 4;
bool scaling_valid();

/// ISEX_BENCH_TIMING_REPEATS when it is set to 1 or more, else `fallback`.
int timing_repeats(int fallback);

/// Seconds on the steady clock since `start`.
double seconds_since(std::chrono::steady_clock::time_point start);

/// Wall times of one configuration's timing repeats, in run order.
struct Timing {
  std::vector<double> seconds;

  double min() const;
  double median() const;
};

/// A flat JSON object's members, each rendered as it is added.
class Fields {
 public:
  Fields& string(std::string_view key, std::string_view value) {
    return add(key, [&](trace::JsonWriter& json) { json.string(value); });
  }
  Fields& boolean(std::string_view key, bool value) {
    return add(key, [&](trace::JsonWriter& json) { json.boolean(value); });
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Fields& integer(std::string_view key, T value) {
    return add(key, [&](trace::JsonWriter& json) { json.integer(value); });
  }
  Fields& fixed(std::string_view key, double value, int digits) {
    return add(key,
               [&](trace::JsonWriter& json) { json.fixed(value, digits); });
  }
  /// A 64-bit digest as a 16-digit hex string.
  Fields& digest(std::string_view key, std::uint64_t value);
  /// `<prefix>_each` (every repeat), `<prefix>_min` and `<prefix>_median`,
  /// in seconds to 4 decimals.
  Fields& timing(std::string_view prefix, const Timing& timing);

  /// The members alone, into an object `json` has open.
  void write_members(trace::JsonWriter& json) const;
  void write(trace::JsonWriter& json) const;

 private:
  template <typename Write>
  Fields& add(std::string_view key, Write write) {
    std::string value;
    trace::JsonWriter json(value);
    write(json);
    members_.emplace_back(std::string(key), std::move(value));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> members_;
};

class Report {
 public:
  /// The report of bench `bench`, written to BENCH_<bench>.json.
  explicit Report(std::string bench);

  /// The run's scalar parameters.
  Fields& params() { return params_; }
  /// Appends one row.
  Fields& add_row() { return rows_.emplace_back(); }

  /// Each records a gate and returns whether it passed.
  bool identity(std::string_view name, bool pass);
  bool floor(std::string_view name, double value, double bound,
             bool enforced = true);
  bool ceiling(std::string_view name, double value, double bound,
               bool enforced = true);

  /// Writes the file, prints every failed gate to stderr, and returns the
  /// exit code: 1 when an enforced gate failed or the file could not be
  /// written, else 0.
  int finish() const;

 private:
  struct Gate {
    std::string name;
    const char* kind;  ///< "identity", "floor" or "ceiling"
    double value;
    double bound;
    bool enforced;
    bool pass;

    bool is_identity() const { return std::string_view(kind) == "identity"; }
  };

  bool add_gate(Gate gate);

  std::string bench_;
  Fields params_;
  std::vector<Fields> rows_;
  std::vector<Gate> gates_;
};

}  // namespace isex::gate
