#include "opt/distortion.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace poiprivacy::opt {

namespace {

poi::FrequencyVector rounded_base(std::span<const double> base) {
  poi::FrequencyVector out(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    out[i] = static_cast<std::int32_t>(std::llround(std::max(0.0, base[i])));
  }
  return out;
}

}  // namespace

double weighted_objective(std::span<const double> base,
                          std::span<const int> rank,
                          const poi::FrequencyVector& release) {
  assert(base.size() == rank.size() && base.size() == release.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    acc += std::abs(release[i] - std::max(0.0, base[i])) /
           static_cast<double>(rank[i]);
  }
  return acc;
}

double mean_relative_distortion(std::span<const double> base,
                                const poi::FrequencyVector& release) {
  assert(base.size() == release.size());
  if (base.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double b = std::max(0.0, base[i]);
    acc += std::abs(release[i] - b) / (b + 1.0);
  }
  return acc / static_cast<double>(base.size());
}

poi::FrequencyVector optimize_release(const DistortionProblem& problem) {
  const std::size_t m = problem.base.size();
  if (problem.rank.size() != m) {
    throw std::invalid_argument("optimize_release: base/rank size mismatch");
  }
  if (problem.beta < 0.0) {
    throw std::invalid_argument("optimize_release: beta must be >= 0");
  }

  poi::FrequencyVector release = rounded_base(problem.base);
  double remaining = problem.beta * static_cast<double>(m);
  if (remaining <= 0.0) return release;

  // Per-unit benefit 1/R(i); per-unit budget cost 1/(M (b_i + 1)).
  // Greedy over descending benefit/cost = M (b_i + 1) / R(i), over the
  // types it can move only (see the header for why the order is kept).
  std::vector<std::pair<double, std::size_t>> candidates;
  for (std::size_t i = 0; i < m; ++i) {
    if (problem.max_rank > 0 && problem.rank[i] > problem.max_rank) continue;
    if (release[i] <= 0 && problem.max_injection <= 0) continue;
    const double b = std::max(0.0, problem.base[i]);
    candidates.emplace_back(static_cast<double>(m) * (b + 1.0) /
                                static_cast<double>(problem.rank[i]),
                            i);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;  // deterministic tie-break
            });

  for (const auto& [ratio, i] : candidates) {
    if (remaining <= 0.0) break;
    const double b = std::max(0.0, problem.base[i]);
    const double unit_cost = 1.0 / (b + 1.0);
    // Suppress positive entries down to 0; inject into zero entries.
    const std::int32_t cap =
        release[i] > 0 ? release[i] : problem.max_injection;
    const auto affordable = static_cast<std::int32_t>(remaining / unit_cost);
    const std::int32_t delta = std::min(cap, affordable);
    if (delta <= 0) continue;
    if (release[i] > 0) {
      release[i] -= delta;
    } else {
      release[i] += delta;
    }
    remaining -= static_cast<double>(delta) * unit_cost;
  }
  return release;
}

}  // namespace poiprivacy::opt
