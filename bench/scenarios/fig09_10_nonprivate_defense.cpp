// Figures 9 and 10: the non-private optimization defense (Eq. 7).
//   Fig. 9  — attack success rate vs beta, per query range.
//   Fig. 10 — Top-10 Jaccard utility vs beta, per query range.
// Datasets: Beijing T-drive and NYC Foursquare, as in the paper.
#include <iostream>

#include "common/stats.h"
#include "defense/opt_defense.h"
#include "eval/bench_options.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  const auto top_k = static_cast<std::size_t>(
      options.flags.get("top-k", static_cast<std::int64_t>(10)));
  options.print_context(
      "Figures 9-10 — non-private optimization defense (Eq. 7)");
  const eval::Workbench workbench(options.workbench_config());

  const double betas[] = {0.01, 0.02, 0.03, 0.04, 0.05};
  const eval::DatasetKind kinds[] = {eval::DatasetKind::kBeijingTdrive,
                                     eval::DatasetKind::kNycFoursquare};
  for (const eval::DatasetKind kind : kinds) {
    const poi::PoiDatabase& db = workbench.city_of(kind).db;
    eval::print_section(std::cout,
                        std::string("Fig. 9 — success rate, ") +
                            eval::dataset_name(kind));
    eval::Table success({"beta", "r=0.5km", "r=1.0km", "r=2.0km",
                         "r=4.0km"});
    eval::Table utility({"beta", "r=0.5km", "r=1.0km", "r=2.0km",
                         "r=4.0km"});
    {
      std::vector<std::string> row{"0 (none)"};
      for (const double r : eval::kQueryRangesKm) {
        row.push_back(common::fmt(
            eval::evaluate_attack(db, workbench.locations(kind), r,
                                  eval::identity_release(db))
                .success_rate()));
      }
      success.add_row(std::move(row));
    }
    for (const double beta : betas) {
      const defense::OptimizationDefense defense(db, beta);
      const eval::ReleaseFn release = [&](geo::Point l, double radius) {
        return defense.release(db.freq(l, radius));
      };
      std::vector<std::string> success_row{common::fmt(beta, 2)};
      std::vector<std::string> utility_row{common::fmt(beta, 2)};
      for (const double r : eval::kQueryRangesKm) {
        success_row.push_back(common::fmt(
            eval::evaluate_attack(db, workbench.locations(kind), r, release)
                .success_rate()));
        utility_row.push_back(common::fmt(
            eval::evaluate_utility(db, workbench.locations(kind), r, release,
                                   top_k)
                .mean_jaccard));
      }
      success.add_row(std::move(success_row));
      utility.add_row(std::move(utility_row));
    }
    success.print(std::cout);
    eval::print_section(std::cout,
                        std::string("Fig. 10 — Top-") + std::to_string(top_k) +
                            " Jaccard utility, " + eval::dataset_name(kind));
    utility.print(std::cout);
  }
  eval::print_note(std::cout,
                   "paper: larger beta defends better while the Jaccard "
                   "utility decreases only slightly");
  return 0;
}

}  // namespace

void register_fig09_10_nonprivate_defense(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "fig09_10_nonprivate_defense",
      .description = "Figs. 9-10: non-private optimization defense — attack "
                     "success and Jaccard utility vs beta",
      .extra_flags = {"top-k"},
      .smoke_args = {"--locations", "8", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
