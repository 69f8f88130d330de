// Budgeted weighted-distortion optimizer implementing the release
// objective of the paper's Eq. (7) (non-private) and Eq. (9) (DP variant):
//
//   max_{F~}  sum_i  (1 / R(i)) * |F~_i - F_i|
//   s.t.      (1/M) sum_i |F~_i - F_i| / (F_i + 1)  <=  beta,
//             F~_i a nonnegative integer,
//
// where R(i) is the citywide infrequency rank (rarest = 1).
//
// Interpretation notes (documented in DESIGN.md):
//   * The base vector may be real-valued (the DP variant feeds in a noised
//     mean), so an integer release necessarily spends some distortion on
//     rounding. We treat beta as the budget for distortion *beyond* the
//     nearest-integer release, which keeps every instance feasible.
//   * The continuous relaxation is a linear program whose optimum dumps
//     the entire budget into the single best benefit/cost type; that is
//     useless as a defense, so the solver caps the per-type change:
//     a positive entry may be suppressed down to 0, and a zero/rare entry
//     may be inflated by at most `max_injection`. Types are processed in
//     descending benefit/cost order, which is exactly the greedy optimum
//     of the capped problem.
//   * The greedy only ever visits the types it can move: those within
//     `max_rank` and with a positive rounded entry (or any type when
//     injection is on). On a served DP release that is a handful of the
//     rare tail, so the sort runs over those candidates alone. Their
//     relative order is the same as in a sort of all M types, because the
//     ratio comparator with its index tie-break is a strict total order,
//     and a skipped type never touches the remaining budget.
#pragma once

#include <cstdint>
#include <span>

#include "poi/frequency.h"

namespace poiprivacy::opt {

/// A view of one instance: `base` and `rank` are borrowed, not copied, so
/// the caller's vectors must outlive the optimize_release call.
struct DistortionProblem {
  /// Base vector (F in Eq. 7, the noised mean F*_D in Eq. 9). Entries may
  /// be real-valued and are clamped at 0.
  std::span<const double> base;
  /// Citywide infrequency rank per type (1 = rarest). Same length as base.
  std::span<const int> rank;
  /// Average relative-distortion budget (the paper sweeps 0.01..0.05).
  double beta = 0.02;
  /// Cap on fake counts injected into a type whose base entry is 0.
  /// 0 disables injection.
  std::int32_t max_injection = 2;
  /// Only types with infrequency rank <= max_rank may be perturbed
  /// (<= 0 means no restriction). The defenses restrict perturbation to
  /// the rare tail: the weighted objective earns almost nothing on common
  /// types anyway, and spending leftover budget there would wreck the
  /// Top-K utility the paper reports as barely affected by beta.
  int max_rank = 0;
};

/// Greedy solve of the capped problem; deterministic. Returns the
/// release; weighted_objective and mean_relative_distortion score it.
/// Throws std::invalid_argument on a base/rank size mismatch or beta < 0.
poi::FrequencyVector optimize_release(const DistortionProblem& problem);

/// Objective of Eq. (7) for an arbitrary release.
double weighted_objective(std::span<const double> base,
                          std::span<const int> rank,
                          const poi::FrequencyVector& release);

/// Mean relative distortion (the constraint's left-hand side).
double mean_relative_distortion(std::span<const double> base,
                                const poi::FrequencyVector& release);

}  // namespace poiprivacy::opt
