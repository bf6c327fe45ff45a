#include "trace/telemetry.hpp"

#include <ostream>

#include "trace/json.hpp"

namespace isex::trace {

const char* ExplorationTelemetry::csv_header() {
  return "round,colony,iteration,tet,best_tet,worst_tet,mean_tet,"
         "converged_fraction,entropy,max_option_probability,p_end,ants,"
         "cache_hit_rate";
}

void ExplorationTelemetry::write_csv(std::ostream& out,
                                     std::span<const ConvergencePoint> points) {
  out << csv_header() << '\n';
  for (const ConvergencePoint& p : points) {
    out << p.round << ',' << p.colony << ',' << p.iteration << ','
        << p.tet << ',' << p.best_tet
        << ',' << p.worst_tet << ',' << p.mean_tet << ','
        << p.converged_fraction << ',' << p.entropy << ','
        << p.max_option_probability << ',' << p.p_end << ',' << p.ants << ','
        << p.cache_hit_rate << '\n';
  }
}

void ExplorationTelemetry::write_jsonl(
    std::ostream& out, std::span<const ConvergencePoint> points) {
  std::string text;
  JsonWriter json(text);
  for (const ConvergencePoint& p : points) {
    json.begin_object().key("round").integer(p.round)
        .key("colony").integer(p.colony).key("iteration").integer(p.iteration)
        .key("tet").integer(p.tet).key("best_tet").integer(p.best_tet)
        .key("worst_tet").integer(p.worst_tet)
        .key("mean_tet").number(p.mean_tet)
        .key("converged_fraction").number(p.converged_fraction)
        .key("entropy").number(p.entropy)
        .key("max_option_probability").number(p.max_option_probability)
        .key("p_end").number(p.p_end).key("ants").integer(p.ants)
        .key("cache_hit_rate").number(p.cache_hit_rate)
        .end_object().newline();
  }
  out << text;
}

}  // namespace isex::trace
