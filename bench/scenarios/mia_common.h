// Shared plumbing for the membership-inference (mia_*) scenarios: one
// flag vocabulary for the synthetic population and game size, resolved
// into src/mia configs. All three scenarios attack the same Beijing
// city and trace population, so their numbers are directly comparable.
#pragma once

#include <vector>

#include "eval/bench_options.h"
#include "mia/game.h"
#include "mia/mobility.h"

namespace poiprivacy::bench {

/// Flags every mia scenario accepts beyond the common set.
inline const std::vector<std::string> kMiaFlags = {
    "users", "epochs", "group", "pairs", "trials", "roi"};

inline mia::MobilityConfig mia_mobility_config(
    const eval::BenchOptions& options) {
  mia::MobilityConfig config;
  config.num_users = static_cast<std::size_t>(
      options.flags.get("users", static_cast<std::int64_t>(100)));
  config.epochs = static_cast<std::size_t>(
      options.flags.get("epochs", static_cast<std::int64_t>(16)));
  config.visits_per_epoch = 3;
  config.profile_tiles = 3;
  config.routine_prob = 0.85;
  return config;
}

inline mia::GameConfig mia_game_config(const eval::BenchOptions& options,
                                       const mia::MobilityConfig& mobility) {
  mia::GameConfig config;
  config.stream.window_epochs = 2;
  config.stream.stride = 2;
  config.roi_tiles = static_cast<std::size_t>(
      options.flags.get("roi", static_cast<std::int64_t>(256)));
  config.group_size = static_cast<std::size_t>(
      options.flags.get("group", static_cast<std::int64_t>(20)));
  config.train_pairs = static_cast<std::size_t>(
      options.flags.get("pairs", static_cast<std::int64_t>(64)));
  config.test_pairs = 8;
  config.train_epochs = mobility.epochs / 2;
  config.trials = static_cast<std::size_t>(
      options.flags.get("trials", static_cast<std::int64_t>(8)));
  config.seed = options.seed;
  return config;
}

/// The canonical smoke arguments of every mia scenario: a small game
/// that still trains real distinguishers, pinned so the multi-thread and
/// dispatch-tier byte-identity gates compare like with like.
inline const std::vector<std::string> kMiaSmokeArgs = {
    "--users", "40",  "--epochs", "16", "--group", "5",   "--pairs",
    "12",      "--trials", "2",   "--roi",  "48", "--seed", "4242"};

}  // namespace poiprivacy::bench
