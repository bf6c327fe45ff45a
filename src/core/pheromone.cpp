#include "core/pheromone.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace isex::core {

PheromoneState::PheromoneState(const hw::GPlus& gplus,
                               const ExplorerParams& params)
    : gplus_(&gplus),
      params_(&params),
      trail_(gplus.num_entries(), params.initial_trail) {
  merit_.reserve(gplus.num_entries());
  for (std::size_t i = 0; i < gplus.num_entries(); ++i) {
    merit_.push_back(gplus.entry(i).kind == hw::ImplKind::kHardware
                         ? params.initial_merit_hardware
                         : params.initial_merit_software);
  }
}

void PheromoneState::set_trail(dfg::NodeId v, std::size_t option,
                               double value) {
  trail_[index(v, option)] = std::clamp(value, 0.0, params_->trail_max);
}

void PheromoneState::set_merit(dfg::NodeId v, std::size_t option, double value) {
  merit_[index(v, option)] = std::max(value, 0.0);
}

void PheromoneState::normalize_merit(dfg::NodeId v) {
  double* const first = merit_.data() + gplus_->offset(v);
  double* const last = first + num_options(v);
  double best = 0.0;
  for (const double* m = first; m != last; ++m) best = std::max(best, *m);
  if (best <= 0.0) {
    // Degenerate (all merits decayed away): reset to a uniform floor so the
    // ant can still make a choice.
    std::fill(first, last, params_->merit_scale);
    return;
  }
  const double factor = params_->merit_scale / best;
  // Keep a tiny floor so no option's probability hits exactly zero — the
  // paper argues excluded options may become optimal later (case 3 note).
  constexpr double kFloor = 1e-6;
  for (double* m = first; m != last; ++m) *m = std::max(*m * factor, kFloor);
}

void PheromoneState::update_trails(std::span<const int> chosen,
                                   const std::vector<bool>& reordered,
                                   bool improved) {
  const std::size_t n = num_nodes();
  ISEX_ASSERT(chosen.size() == n);
  ISEX_ASSERT(reordered.size() == n);
  const ExplorerParams& p = *params_;
  for (dfg::NodeId v = 0; v < n; ++v) {
    double* const row = trail_.data() + gplus_->offset(v);
    const std::size_t options = num_options(v);
    for (std::size_t o = 0; o < options; ++o) {
      double t = row[o];
      const bool was_chosen = chosen[v] == static_cast<int>(o);
      if (improved) {
        t += was_chosen ? p.rho1 : -p.rho2;
      } else {
        t += was_chosen ? -p.rho3 : p.rho4;
        if (reordered[v]) t -= p.rho5;
      }
      row[o] = std::clamp(t, 0.0, p.trail_max);
    }
  }
}

void PheromoneState::weights_into(std::span<double> out) const {
  ISEX_ASSERT(out.size() == trail_.size());
  const ExplorerParams& p = *params_;
  // Same expression as weight(), so every entry is bit-identical to it.
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = p.alpha * trail_[i] + (1.0 - p.alpha) * merit_[i];
}

double PheromoneState::selected_probability(dfg::NodeId v,
                                            std::size_t option) const {
  const std::size_t options = num_options(v);
  double denom = 0.0;
  for (std::size_t o = 0; o < options; ++o) denom += weight(v, o);
  if (denom <= 0.0) return 1.0 / static_cast<double>(options);
  return weight(v, option) / denom;
}

std::size_t PheromoneState::best_option(dfg::NodeId v) const {
  const std::size_t options = num_options(v);
  ISEX_ASSERT(options > 0);
  std::size_t best = 0;
  for (std::size_t o = 1; o < options; ++o) {
    if (weight(v, o) > weight(v, best)) best = o;
  }
  return best;
}

bool PheromoneState::converged() const {
  for (dfg::NodeId v = 0; v < num_nodes(); ++v) {
    if (num_options(v) <= 1) continue;  // single option: trivially decided
    const std::size_t best = best_option(v);
    if (selected_probability(v, best) <= params_->p_end) return false;
  }
  return true;
}

double PheromoneState::decision_entropy() const {
  const std::size_t n = num_nodes();
  if (n == 0) return 0.0;
  double total = 0.0;
  for (dfg::NodeId v = 0; v < n; ++v) {
    const std::size_t options = num_options(v);
    if (options <= 1) continue;  // single option: zero entropy
    double h = 0.0;
    for (std::size_t o = 0; o < options; ++o) {
      const double p = selected_probability(v, o);
      if (p > 0.0) h -= p * std::log2(p);
    }
    total += h / std::log2(static_cast<double>(options));
  }
  return total / static_cast<double>(n);
}

double PheromoneState::min_best_probability() const {
  double min_p = 1.0;
  for (dfg::NodeId v = 0; v < num_nodes(); ++v) {
    if (num_options(v) <= 1) continue;
    min_p = std::min(min_p, selected_probability(v, best_option(v)));
  }
  return min_p;
}

PheromoneMerger::PheromoneMerger(std::size_t num_colonies,
                                 const ExplorerParams& params)
    : params_(&params), slots_(num_colonies) {
  ISEX_ASSERT(num_colonies >= 1);
}

void PheromoneMerger::submit(std::size_t colony, const PheromoneState& state,
                             int best_tet,
                             std::span<const int> best_chosen) {
  ISEX_ASSERT(colony < slots_.size());
  ISEX_ASSERT(slots_[colony].state == nullptr);  // one contribution per slot
  ISEX_ASSERT(best_chosen.size() == state.num_nodes());
  slots_[colony] = Slot{&state, best_tet, best_chosen};
}

std::size_t PheromoneMerger::winner() const {
  std::size_t best = 0;
  for (std::size_t c = 0; c < slots_.size(); ++c) {
    ISEX_ASSERT(slots_[c].state != nullptr);
    if (slots_[c].best_tet < slots_[best].best_tet) best = c;
  }
  return best;
}

void PheromoneMerger::finalize_into(PheromoneState& out) const {
  for (const Slot& slot : slots_)
    ISEX_ASSERT(slot.state != nullptr && &slot.state->gplus() == &out.gplus());
  const ExplorerParams& p = *params_;
  const std::size_t k = slots_.size();
  const double inv_k = 1.0 / static_cast<double>(k);
  const double keep = 1.0 - p.merge_evaporation;
  const Slot& best = slots_[winner()];
  for (dfg::NodeId v = 0; v < out.num_nodes(); ++v) {
    const std::size_t options = out.num_options(v);
    for (std::size_t o = 0; o < options; ++o) {
      // Sums run in ascending colony-index order; with FP addition being
      // order-sensitive this is what makes the merge a pure function of the
      // indexed contributions rather than of completion order.
      double trail_sum = 0.0;
      double merit_sum = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        trail_sum += slots_[c].state->trail(v, o);
        merit_sum += slots_[c].state->merit(v, o);
      }
      double trail = keep * trail_sum * inv_k;
      if (best.best_chosen[v] == static_cast<int>(o)) trail += p.rho1;
      out.set_trail(v, o, trail);
      out.set_merit(v, o, merit_sum * inv_k);
    }
    out.normalize_merit(v);
  }
}

double PheromoneState::converged_fraction() const {
  const std::size_t n = num_nodes();
  if (n == 0) return 1.0;
  std::size_t done = 0;
  for (dfg::NodeId v = 0; v < n; ++v) {
    if (num_options(v) <= 1 ||
        selected_probability(v, best_option(v)) > params_->p_end)
      ++done;
  }
  return static_cast<double>(done) / static_cast<double>(n);
}

}  // namespace isex::core
