#include "core/merit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/schedule.hpp"
#include "util/assert.hpp"

namespace isex::core {
namespace {

/// Widens a member set's dependence window by member v: the earliest
/// possible start and the latest allowed finish (Fig 4.3.8).
void widen_window(const dfg::Graph& graph, const dfg::PathInfo& path,
                  dfg::NodeId v, double& earliest, double& latest_finish) {
  earliest = std::min(earliest, path.earliest[v]);
  const double lat = static_cast<double>(sched::node_latency(graph, v));
  latest_finish = std::max(latest_finish, path.latest[v] + lat);
}

/// Max_AEC of a dependence window, where ALAP levels are anchored to the
/// schedule's actual length (tet ≥ dependence length).
double window_cycles(double earliest, double latest_finish,
                     const dfg::PathInfo& path, int tet) {
  const double slack_shift =
      std::max(0.0, static_cast<double>(tet) - path.length);
  return latest_finish + slack_shift - earliest;
}

}  // namespace

MeritEngine::MeritEngine(const hw::GPlus& gplus, const isa::IsaFormat& format,
                         const ExplorerParams& params,
                         const dfg::Reachability& reach, hw::ClockSpec clock)
    : gplus_(&gplus),
      params_(&params),
      grouping_(gplus, format, reach, clock),
      timing_capped_(format.max_ise_latency_cycles > 0) {}

double MeritEngine::max_allowable_cycles(const dfg::Graph& graph,
                                         const dfg::NodeSet& members,
                                         const dfg::PathInfo& path, int tet) {
  if (members.empty()) return 0.0;
  double earliest = std::numeric_limits<double>::max();
  double latest_finish = 0.0;
  members.for_each([&](dfg::NodeId v) {
    widen_window(graph, path, v, earliest, latest_finish);
  });
  return window_cycles(earliest, latest_finish, path, tet);
}

void MeritEngine::update(PheromoneState& pheromone, const MeritInputs& inputs,
                         GroupingScratch& scratch) const {
  const dfg::Graph& graph = gplus_->graph();
  const std::size_t n = graph.num_nodes();
  ISEX_ASSERT(inputs.chosen.size() == n);
  ISEX_ASSERT(inputs.critical != nullptr && inputs.path != nullptr);
  const dfg::NodeSet& critical = *inputs.critical;
  const dfg::PathInfo& path = *inputs.path;

  grouping_.label_components(inputs.chosen, scratch);
  const ExplorerParams& p = *params_;

  // A component's critical flag and dependence window depend only on its
  // members, the critical set and the path levels, so each is computed once
  // per iteration, for all its members and every software x that joins it.
  for (std::size_t c = 0; c < scratch.num_components; ++c) {
    GroupingScratch::Component& comp = scratch.components[c];
    comp.critical = comp.cand.members.intersects(critical);
    comp.earliest = std::numeric_limits<double>::max();
    comp.latest_finish = 0.0;
    for (const dfg::NodeId v : comp.order)
      widen_window(graph, path, v, comp.earliest, comp.latest_finish);
  }

  // One loop over each node's raw merit row: option 0 is software and
  // options 1..k-1 are hardware (G+'s layout).  Every factor is checked
  // non-negative as it is applied.
  const auto scale = [](double& merit, double factor) {
    ISEX_ASSERT(factor >= 0.0);
    merit *= factor;
  };
  for (dfg::NodeId x = 0; x < n; ++x) {
    const std::span<double> row = pheromone.merits(x);
    double* const m = row.data();
    const std::size_t k = row.size();

    // Software part: merit ×= execution time of the option.
    scale(m[0], gplus_->software_cycles(x));

    if (k > 1) {
      // With locality awareness off (single-issue baseline) every operation
      // counts as critical: any saved cycle shortens a sequential schedule.
      const bool x_critical = !p.locality_aware || critical.contains(x);

      // Case 1: critical-path boost.
      if (x_critical) {
        for (std::size_t j = 1; j < k; ++j) scale(m[j], 1.0 / p.beta_cp);
      }

      if (grouping_.isolated(x, scratch)) {
        // Case 2: a lone operation cannot beat its 1-cycle software form.
        // vS_x = {x} is all it reads, so x skips grouping.
        for (std::size_t j = 1; j < k; ++j) scale(m[j], p.beta_size);
        pheromone.normalize_merit(x);
        continue;
      }

      // Without a pipestage cap nothing but a port or convexity violation
      // can put x in case 3, and case 3 reads no option evaluation.
      const VirtualCandidate& cand = grouping_.join(x, scratch);
      if (timing_capped_ || !(cand.io_violation || cand.convex_violation))
        grouping_.evaluate(x, scratch);
      if (cand.io_violation || cand.convex_violation ||
          cand.timing_violation) {
        // Case 3: keep a reduced chance — the constraint may dissolve as
        // neighbours flip back to software in later iterations.
        for (std::size_t j = 1; j < k; ++j) {
          if (cand.io_violation) scale(m[j], p.beta_io);
          if (cand.convex_violation) scale(m[j], p.beta_convex);
          if (cand.timing_violation) scale(m[j], p.beta_timing);
        }
      } else {
        // Case 4: legal candidate of size ≥ 2.  Its critical flag and
        // dependence window are those of the components it spans, joined
        // with x's own when x chose software; `or`, min and max give the
        // same result as a pass over the members in any order.
        bool cand_critical = !p.locality_aware;
        double earliest = std::numeric_limits<double>::max();
        double latest_finish = 0.0;
        const int own = scratch.label[x];
        if (own < 0) {
          cand_critical = cand_critical || critical.contains(x);
          widen_window(graph, path, x, earliest, latest_finish);
        }
        const std::span<const int> comps =
            own >= 0 ? std::span<const int>(&scratch.label[x], 1)
                     : std::span<const int>(scratch.adjacent);
        for (const int c : comps) {
          const GroupingScratch::Component& comp =
              scratch.components[static_cast<std::size_t>(c)];
          cand_critical = cand_critical || comp.critical;
          earliest = std::min(earliest, comp.earliest);
          latest_finish = std::max(latest_finish, comp.latest_finish);
        }

        // Reference option HW-MAX: maximal execution-time reduction.
        const VirtualCandidate::OptionEval* const evals =
            cand.per_option.data();
        ISEX_ASSERT(cand.per_option.size() == k);
        int best_cycles = std::numeric_limits<int>::max();
        double area_max = 0.0;
        for (std::size_t j = 1; j < k; ++j) {
          best_cycles = std::min(best_cycles, evals[j].cycles);
          area_max = std::max(area_max, evals[j].area);
        }
        // Saving is measured against the members' sequential software time.
        // (Depth-based saving would zero out shallow side clusters, but
        // folding those into a chain ISE still frees issue slots; the
        // commit-time gain check on the real schedule is the honest filter,
        // so merit stays generous and locality enters through case 1 and
        // the critical/Max_AEC branches below.)
        const double sw_time = cand.sw_seq_cycles;
        const double max_aec =
            window_cycles(earliest, latest_finish, path, inputs.tet);
        for (std::size_t j = 1; j < k; ++j) {
          const VirtualCandidate::OptionEval& eval = evals[j];
          const double saving = std::max(0.0, sw_time - eval.cycles);
          scale(m[j], saving);
          if (saving <= 0.0) continue;
          const double area_ratio =
              eval.area > 0.0 ? area_max / eval.area : 1.0;
          if (cand_critical) {
            if (eval.cycles == best_cycles) {
              scale(m[j], area_ratio);
            } else {
              scale(m[j], 1.0 / (1.0 + eval.cycles - best_cycles));
            }
          } else {
            if (static_cast<double>(eval.cycles) <= max_aec) {
              scale(m[j], area_ratio);
            } else {
              scale(m[j], 1.0 / (1.0 + eval.cycles - max_aec));
            }
          }
        }
      }
    }

    pheromone.normalize_merit(x);
  }
}

}  // namespace isex::core
