#include "trace/telemetry.hpp"

#include <ostream>

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

}  // namespace isex::trace
