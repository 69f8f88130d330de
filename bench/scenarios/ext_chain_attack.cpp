// Extension experiment: multi-release chain attack (generalizing Fig. 8
// beyond two releases). Sweeps the chain length on Beijing taxi
// trajectories and reports the success rate of re-identifying the first
// location of the chain.
#include <iostream>

#include "attack/chain_attack.h"
#include "common/stats.h"
#include "eval/bench_options.h"
#include "eval/table.h"
#include "scenarios/scenarios.h"
#include "traj/generators.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  const double r = options.flags.get("r", 1.0);
  const auto max_chains = static_cast<std::size_t>(
      options.flags.get("chains", static_cast<std::int64_t>(400)));
  options.print_context(
      "Extension — multi-release chain attack (r = " + common::fmt(r, 1) +
      " km, T-drive Beijing)");
  const eval::Workbench workbench(options.workbench_config());
  const poi::PoiDatabase& db = workbench.beijing().db;

  const auto pairs = traj::extract_release_pairs(
      workbench.taxi_trajectories(), db, r, 10 * 60);
  if (pairs.size() < 40) {
    std::cout << "not enough training pairs (" << pairs.size() << ")\n";
    return 1;
  }
  common::Rng rng(options.seed);
  const attack::TrajectoryAttack pairwise(
      db, std::span(pairs.data(), pairs.size() / 2), r,
      attack::TrajectoryAttackConfig{}, rng);
  const attack::ChainAttack chain(db, pairwise, r);

  eval::Table table({"chain length", "success rate", "attempts"});
  for (const std::size_t length : {1u, 2u, 3u, 4u, 5u}) {
    std::size_t successes = 0;
    std::size_t attempts = 0;
    for (const traj::Trajectory& t : workbench.taxi_trajectories()) {
      if (attempts >= max_chains) break;
      // Slide a window with stride = length to keep chains disjoint.
      for (std::size_t start = 0;
           start + length <= t.points.size() && attempts < max_chains;
           start += length + 1) {
        std::vector<attack::TimedRelease> releases;
        bool ok = true;
        for (std::size_t i = start; i < start + length; ++i) {
          // The paper's qualifying rule: successive vectors must differ
          // and gaps stay below 10 minutes.
          if (i > start &&
              t.points[i].time - t.points[i - 1].time > 10 * 60) {
            ok = false;
            break;
          }
          releases.push_back({db.freq(t.points[i].pos, r), t.points[i].time});
        }
        if (!ok || releases.size() < length) continue;
        ++attempts;
        successes += chain.success(chain.infer(releases),
                                   t.points[start].pos);
      }
    }
    table.add_row({std::to_string(length),
                   common::fmt(attempts ? static_cast<double>(successes) /
                                              static_cast<double>(attempts)
                                        : 0.0),
                   std::to_string(attempts)});
  }
  eval::print_section(std::cout,
                      "success rate of re-identifying the chain's first "
                      "location");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "expected: success grows with chain length and "
                   "saturates — each extra release adds a distance "
                   "constraint on the candidate set");
  return 0;
}

}  // namespace

void register_ext_chain_attack(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "ext_chain_attack",
      .description = "Extension: multi-release chain attack — success rate "
                     "vs chain length",
      .extra_flags = {"r", "chains"},
      .smoke_args = {"--chains", "40", "--locations", "10", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
