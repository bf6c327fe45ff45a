#include "core/merit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/schedule.hpp"
#include "util/assert.hpp"

namespace isex::core {

MeritEngine::MeritEngine(const hw::GPlus& gplus, const isa::IsaFormat& format,
                         const ExplorerParams& params,
                         const dfg::Reachability& reach, hw::ClockSpec clock)
    : gplus_(&gplus), params_(&params), grouping_(gplus, format, reach, clock) {}

double MeritEngine::max_allowable_cycles(const dfg::Graph& graph,
                                         const dfg::NodeSet& members,
                                         const dfg::PathInfo& path, int tet) {
  // Dependence window of the candidate: earliest possible start of its first
  // operation to the latest allowed finish of its last, where ALAP levels
  // are anchored to the schedule's actual length (tet ≥ dependence length).
  double earliest = std::numeric_limits<double>::max();
  double latest_finish = 0.0;
  members.for_each([&](dfg::NodeId v) {
    earliest = std::min(earliest, path.earliest[v]);
    const double lat = static_cast<double>(sched::node_latency(graph, v));
    latest_finish = std::max(latest_finish, path.latest[v] + lat);
  });
  if (members.empty()) return 0.0;
  const double slack_shift = std::max(0.0, static_cast<double>(tet) - path.length);
  return latest_finish + slack_shift - earliest;
}

void MeritEngine::update(PheromoneState& pheromone, const MeritInputs& inputs,
                         GroupingScratch& scratch) const {
  const dfg::Graph& graph = gplus_->graph();
  const std::size_t n = graph.num_nodes();
  ISEX_ASSERT(inputs.chosen.size() == n);
  ISEX_ASSERT(inputs.critical != nullptr && inputs.path != nullptr);

  grouping_.label_components(inputs.chosen, scratch);
  const ExplorerParams& p = *params_;

  for (dfg::NodeId x = 0; x < n; ++x) {
    const hw::IoTable& table = gplus_->table(x);

    // Software part: merit ×= execution time of the option.
    for (std::size_t o = 0; o < table.size(); ++o) {
      if (!table.is_hardware(o))
        pheromone.scale_merit(x, o, table.option(o).delay);
    }

    if (table.has_hardware()) {
      const VirtualCandidate& cand = grouping_.group(x, scratch);
      // With locality awareness off (single-issue baseline) every operation
      // counts as critical: any saved cycle shortens a sequential schedule.
      const bool x_critical = !p.locality_aware || inputs.critical->contains(x);
      const bool cand_critical =
          !p.locality_aware || cand.members.intersects(*inputs.critical);

      // Case 1: critical-path boost.
      if (x_critical) {
        for (std::size_t j = 0; j < table.size(); ++j)
          if (table.is_hardware(j)) pheromone.scale_merit(x, j, 1.0 / p.beta_cp);
      }

      if (cand.size() == 1) {
        // Case 2: a lone operation cannot beat its 1-cycle software form.
        for (std::size_t j = 0; j < table.size(); ++j)
          if (table.is_hardware(j)) pheromone.scale_merit(x, j, p.beta_size);
      } else if (cand.io_violation || cand.convex_violation ||
                 cand.timing_violation) {
        // Case 3: keep a reduced chance — the constraint may dissolve as
        // neighbours flip back to software in later iterations.
        for (std::size_t j = 0; j < table.size(); ++j) {
          if (!table.is_hardware(j)) continue;
          if (cand.io_violation) pheromone.scale_merit(x, j, p.beta_io);
          if (cand.convex_violation) pheromone.scale_merit(x, j, p.beta_convex);
          if (cand.timing_violation) pheromone.scale_merit(x, j, p.beta_timing);
        }
      } else {
        // Case 4: legal candidate of size ≥ 2.
        // Reference option HW-MAX: maximal execution-time reduction.
        int best_cycles = std::numeric_limits<int>::max();
        double area_max = 0.0;
        for (std::size_t j = 0; j < table.size(); ++j) {
          if (!table.is_hardware(j)) continue;
          best_cycles = std::min(best_cycles, cand.per_option[j].cycles);
          area_max = std::max(area_max, cand.per_option[j].area);
        }
        // Saving is measured against the members' sequential software time.
        // (Depth-based saving would zero out shallow side clusters, but
        // folding those into a chain ISE still frees issue slots; the
        // commit-time gain check on the real schedule is the honest filter,
        // so merit stays generous and locality enters through case 1 and
        // the critical/Max_AEC branches below.)
        const double sw_time = cand.sw_seq_cycles;
        const double max_aec = max_allowable_cycles(graph, cand.members,
                                                    *inputs.path, inputs.tet);
        for (std::size_t j = 0; j < table.size(); ++j) {
          if (!table.is_hardware(j)) continue;
          const auto& eval = cand.per_option[j];
          const double saving = std::max(0.0, sw_time - eval.cycles);
          pheromone.scale_merit(x, j, saving);
          if (saving <= 0.0) continue;
          const double area_ratio =
              eval.area > 0.0 ? area_max / eval.area : 1.0;
          if (cand_critical) {
            if (eval.cycles == best_cycles) {
              pheromone.scale_merit(x, j, area_ratio);
            } else {
              pheromone.scale_merit(x, j,
                                    1.0 / (1.0 + eval.cycles - best_cycles));
            }
          } else {
            if (static_cast<double>(eval.cycles) <= max_aec) {
              pheromone.scale_merit(x, j, area_ratio);
            } else {
              pheromone.scale_merit(x, j,
                                    1.0 / (1.0 + eval.cycles - max_aec));
            }
          }
        }
      }
    }

    pheromone.normalize_merit(x);
  }
}

}  // namespace isex::core
