// Budget-managed release session: a user keeps querying through the DP
// defense while an exact dp::Ledger tracks composed (eps, delta) —
// tightest-of(basic, advanced) — and the session refuses to release once
// the ceiling would be crossed.
//
//   ./examples/budget_session [--seed N] [--eps E] [--ceiling C]
#include <iostream>

#include "common/flags.h"
#include "common/stats.h"
#include "defense/opt_defense.h"
#include "dp/ledger.h"
#include "poi/city_model.h"
#include "traj/generators.h"

using namespace poiprivacy;

namespace {

int run(const common::Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  const poi::City city = poi::generate_city(poi::beijing_preset(), seed);
  common::Rng pop_rng(seed + 1);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 10000, pop_rng),
      city.db.bounds());

  defense::DpDefenseConfig release;
  release.epsilon = flags.get("eps", 0.5);
  release.delta = 0.01;
  const defense::DpDefense defense(city.db, cloaker, release);
  const dp::PrivacyParams cost{release.epsilon, release.delta};
  const double epsilon_ceiling = flags.get("ceiling", 4.0);
  dp::Ledger ledger(dp::LedgerConfig{
      .policy = dp::LedgerPolicy::kAdvancedHeterogeneous,
      .epsilon_ceiling = epsilon_ceiling,
      .delta_ceiling = 0.5,
      .advanced_slack = 1e-6,
      .window = dp::WindowPolicy{},
  });

  // A taxi ride across town, querying every few minutes.
  common::Rng rng(seed + 2);
  traj::TaxiConfig taxi_config;
  taxi_config.num_taxis = 1;
  taxi_config.points_per_taxi = 25;
  const auto rides = traj::generate_taxi_trajectories(city, taxi_config, rng);

  std::cout << "per release: eps=" << release.epsilon
            << " delta=" << release.delta
            << "; session ceiling eps=" << epsilon_ceiling << "\n\n";
  for (const traj::TrackPoint& fix : rides.front().points) {
    std::cout << "t+" << fix.time % (24 * 3600) / 60 << "min  ";
    if (ledger.would_exceed(cost)) {
      std::cout << "REFUSED — privacy budget exhausted after "
                << ledger.releases() << " releases (eps="
                << common::fmt(ledger.spent().epsilon, 2) << ")\n";
      break;
    }
    const poi::FrequencyVector released = defense.release(fix.pos, 1.0, rng);
    ledger.record(cost);
    const dp::PrivacyParams spent = ledger.spent();
    std::cout << "released " << poi::total(released)
              << " counts; spent eps=" << common::fmt(spent.epsilon, 2)
              << " delta=" << common::fmt(spent.delta, 3) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return common::run_main(argc, argv, {"seed", "eps", "ceiling"}, run);
}
