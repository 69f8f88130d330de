// Ablation (DESIGN.md): the DP defense's noise mechanism — the paper's
// Gaussian ((eps, delta)-DP, delta = 0.2) vs two-sided geometric noise
// (pure eps-DP, delta = 0) at the same epsilon, r = 2 km, k = 20.
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
  const double beta = options.flags.get("beta", 0.02);
  options.print_context(
      "Ablation — Gaussian vs geometric noise in the DP defense (r = " +
      common::fmt(r, 1) + " km, beta = " + common::fmt(beta, 2) + ")");
  const eval::Workbench workbench(options.workbench_config());

  const eval::DatasetKind kind = eval::DatasetKind::kBeijingTdrive;
  const poi::PoiDatabase& db = workbench.city_of(kind).db;
  common::Rng pop_rng(options.seed + 31);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 10000, pop_rng), db.bounds());

  eval::Table table({"eps", "gauss success", "gauss jaccard",
                     "geom success", "geom jaccard"});
  for (const double eps : {0.2, 0.5, 1.0, 2.0}) {
    std::vector<std::string> row{common::fmt(eps, 1)};
    for (const defense::DpNoiseKind noise :
         {defense::DpNoiseKind::kGaussian, defense::DpNoiseKind::kGeometric}) {
      defense::DpDefenseConfig config;
      config.epsilon = eps;
      config.beta = beta;
      config.noise = noise;
      const defense::DpDefense defense(db, cloaker, config);
      const std::uint64_t release_seed =
          options.seed + static_cast<std::uint64_t>(eps * 100) +
          (noise == defense::DpNoiseKind::kGeometric ? 1 : 0);
      const eval::SeededReleaseFn release =
          [&](geo::Point l, double radius, common::Rng& rng) {
            return defense.release(l, radius, rng);
          };
      row.push_back(common::fmt(
          eval::evaluate_attack(db, workbench.locations(kind), r, release,
                                release_seed)
              .success_rate()));
      row.push_back(common::fmt(
          eval::evaluate_utility(db, workbench.locations(kind), r, release,
                                 release_seed)
              .mean_jaccard));
    }
    table.add_row(std::move(row));
  }
  eval::print_section(std::cout,
                      "BJ:T-drive — Gaussian (delta = 0.2) vs geometric "
                      "(delta = 0)");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "geometric noise buys pure eps-DP; at these epsilons its "
                   "discrete noise is no heavier than the delta=0.2 "
                   "Gaussian, so the stronger guarantee comes essentially "
                   "for free");
  return 0;
}

}  // namespace

void register_ablation_dp_noise(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "ablation_dp_noise",
      .description = "Ablation: Gaussian vs two-sided geometric noise in the "
                     "DP defense",
      .extra_flags = {"r", "beta"},
      .smoke_args = {"--locations", "6", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
