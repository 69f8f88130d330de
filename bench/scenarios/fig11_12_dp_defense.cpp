// Figures 11 and 12: the differentially private defense (Eq. 8-9) at
// r = 2 km, k = 20, delta = 0.2.
//   Fig. 11 — attack success rate vs epsilon for several beta.
//   Fig. 12 — Top-10 Jaccard utility vs epsilon for several beta.
// Datasets: Beijing T-drive and NYC Foursquare, as in the paper.
#include <iostream>

#include "cloak/kcloak.h"
#include "common/stats.h"
#include "defense/opt_defense.h"
#include "eval/bench_options.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  const double r = options.flags.get("r", 2.0);
  const auto k = static_cast<std::size_t>(
      options.flags.get("k", static_cast<std::int64_t>(20)));
  const double delta = options.flags.get("delta", 0.2);
  const auto num_users = static_cast<std::size_t>(
      options.flags.get("users", static_cast<std::int64_t>(10000)));
  options.print_context(
      "Figures 11-12 — differentially private defense (Eq. 8-9), r = " +
      common::fmt(r, 1) + " km, k = " + std::to_string(k) +
      ", delta = " + common::fmt(delta, 1));
  const eval::Workbench workbench(options.workbench_config());

  const double epsilons[] = {0.2, 0.5, 1.0, 1.5, 2.0};
  const double betas[] = {0.01, 0.02, 0.03, 0.04, 0.05};
  const eval::DatasetKind kinds[] = {eval::DatasetKind::kBeijingTdrive,
                                     eval::DatasetKind::kNycFoursquare};

  for (const eval::DatasetKind kind : kinds) {
    const poi::PoiDatabase& db = workbench.city_of(kind).db;
    common::Rng pop_rng(options.seed + 31);
    const cloak::AdaptiveIntervalCloaker cloaker(
        cloak::uniform_population(db.bounds(), num_users, pop_rng),
        db.bounds());

    const eval::AttackStats base = eval::evaluate_attack(
        db, workbench.locations(kind), r, eval::identity_release(db));

    eval::print_section(std::cout, std::string("Fig. 11 — success rate, ") +
                                       eval::dataset_name(kind) +
                                       " (w/o protection: " +
                                       common::fmt(base.success_rate()) + ")");
    eval::Table success({"beta \\ eps", "0.2", "0.5", "1.0", "1.5", "2.0"});
    eval::Table utility({"beta \\ eps", "0.2", "0.5", "1.0", "1.5", "2.0"});
    for (const double beta : betas) {
      std::vector<std::string> success_row{common::fmt(beta, 2)};
      std::vector<std::string> utility_row{common::fmt(beta, 2)};
      for (const double eps : epsilons) {
        defense::DpDefenseConfig config;
        config.k = k;
        config.epsilon = eps;
        config.delta = delta;
        config.beta = beta;
        const defense::DpDefense defense(db, cloaker, config);
        const std::uint64_t release_seed =
            options.seed + static_cast<std::uint64_t>(eps * 1000 + beta * 100);
        const eval::SeededReleaseFn release =
            [&](geo::Point l, double radius, common::Rng& rng) {
              return defense.release(l, radius, rng);
            };
        success_row.push_back(common::fmt(
            eval::evaluate_attack(db, workbench.locations(kind), r, release,
                                  release_seed)
                .success_rate()));
        utility_row.push_back(common::fmt(
            eval::evaluate_utility(db, workbench.locations(kind), r, release,
                                   release_seed)
                .mean_jaccard));
      }
      success.add_row(std::move(success_row));
      utility.add_row(std::move(utility_row));
    }
    success.print(std::cout);
    eval::print_section(std::cout,
                        std::string("Fig. 12 — Top-10 Jaccard utility, ") +
                            eval::dataset_name(kind));
    utility.print(std::cout);
  }
  eval::print_note(std::cout,
                   "paper: defense weakens and utility improves as the "
                   "privacy budget grows; beta barely moves the utility");
  return 0;
}

}  // namespace

void register_fig11_12_dp_defense(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "fig11_12_dp_defense",
      .description = "Figs. 11-12: differentially private defense — attack "
                     "success and Jaccard utility vs epsilon",
      .extra_flags = {"r", "k", "delta", "users"},
      .smoke_args = {"--locations", "6", "--users", "400", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
