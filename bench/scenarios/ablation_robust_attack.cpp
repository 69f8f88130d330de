// Ablation (beyond the paper): how do the aggregate-level defenses hold
// up against attackers that do not key on a single pivot type?
//
//   * baseline     — the paper's region re-identification attack.
//   * robust       — pivot-robust voting attack (attack/robust_reid.h).
//   * fingerprint  — exhaustive grid-envelope attack; reports the
//                    feasible-area it pins the user into (a release is
//                    counted "localized" when that area is at most
//                    4 pi r^2, i.e. comparable to the baseline's output).
//
// Also ablates the defense itself: suppression-only (paper-faithful,
// default) vs fake-count injection (strictly stronger, kills the pivot
// heuristics — but not the fingerprint bound).
#include <iostream>

#include "attack/fingerprint.h"
#include "attack/robust_reid.h"
#include "common/stats.h"
#include "defense/opt_defense.h"
#include "eval/bench_options.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

struct Row {
  double baseline = 0.0;
  double robust = 0.0;
  double fingerprint_localized = 0.0;
  double fingerprint_area = 0.0;
};

Row evaluate(const poi::PoiDatabase& db,
             std::span<const geo::Point> locations, double r,
             const eval::ReleaseFn& release) {
  const attack::RegionReidentifier baseline(db);
  const attack::RobustReidentifier robust(db);
  const attack::FingerprintAttack fingerprint(db, r, {1.0});
  Row row;
  const double localized_threshold = 4.0 * M_PI * r * r;
  for (const geo::Point l : locations) {
    const poi::FrequencyVector released = release(l, r);
    row.baseline +=
        attack::attack_success(baseline.infer(released, r), db, l, r);
    row.robust += robust.success(robust.infer(released, r), l, r);
    const attack::FingerprintResult fp = fingerprint.infer(released);
    row.fingerprint_area += fp.feasible_area_km2;
    row.fingerprint_localized +=
        fp.feasible_area_km2 <= localized_threshold &&
        fingerprint.covers(fp, l);
  }
  const auto n = static_cast<double>(locations.size());
  row.baseline /= n;
  row.robust /= n;
  row.fingerprint_localized /= n;
  row.fingerprint_area /= n;
  return row;
}

int run(const eval::BenchOptions& options) {
  const double r = options.flags.get("r", 2.0);
  const double beta = options.flags.get("beta", 0.03);
  options.print_context(
      "Ablation — pivot-robust and fingerprint attacks vs the "
      "optimization defense (r = " + common::fmt(r, 1) +
      " km, beta = " + common::fmt(beta, 2) + ")");
  const eval::Workbench workbench(options.workbench_config());

  for (const eval::DatasetKind kind : {eval::DatasetKind::kBeijingTdrive,
                                       eval::DatasetKind::kNycFoursquare}) {
    const poi::PoiDatabase& db = workbench.city_of(kind).db;
    eval::print_section(std::cout, std::string("Ablation — ") +
                                       eval::dataset_name(kind));
    eval::Table table({"defense", "baseline", "robust", "fp localized",
                       "fp mean km^2"});

    const auto add = [&](const std::string& name,
                         const eval::ReleaseFn& release) {
      const Row row = evaluate(db, workbench.locations(kind), r, release);
      table.add_row({name, common::fmt(row.baseline),
                     common::fmt(row.robust),
                     common::fmt(row.fingerprint_localized),
                     common::fmt(row.fingerprint_area, 1)});
    };

    add("none", eval::identity_release(db));
    const defense::OptimizationDefense suppress(db, beta,
                                                /*max_injection=*/0);
    add("suppress-only (paper)", [&](geo::Point l, double radius) {
      return suppress.release(db.freq(l, radius));
    });
    const defense::OptimizationDefense inject(db, beta, /*max_injection=*/2);
    add("with injection", [&](geo::Point l, double radius) {
      return inject.release(db.freq(l, radius));
    });
    table.print(std::cout);
  }
  eval::print_note(
      std::cout,
      "expected: injection crushes the pivot attacks; the fingerprint "
      "attack's no-false-negative bound is immune to suppression but "
      "inflated entries can break its envelope test");
  return 0;
}

}  // namespace

void register_ablation_robust_attack(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "ablation_robust_attack",
      .description = "Ablation: pivot-robust and fingerprint attacks vs "
                     "suppression and injection defenses",
      .extra_flags = {"r", "beta"},
      .smoke_args = {"--locations", "8", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
