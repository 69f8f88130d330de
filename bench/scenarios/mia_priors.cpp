// Membership inference under weaker prior knowledge: how much the
// adversary's training data matters. The subset-of-locations prior is
// ablated over the known population fraction (it simulates raw training
// aggregates from the traces it knows), and compared against the
// participation-in-past-groups prior, which only ever saw released —
// noised — aggregates of groups with known membership. Both face the
// same moderately-noised challenge stream.
#include <iostream>

#include "attack/attack_context.h"
#include "common/stats.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "mia_common.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  const double epsilon = options.flags.get("eps", 5.0);
  options.print_context(
      "Membership inference — prior-knowledge ablation (challenge stream "
      "at eps = " +
      common::fmt(epsilon, 1) + " per window)");
  const eval::Workbench workbench(options.workbench_config());
  const attack::AttackContext ctx(workbench.beijing().db);
  const mia::MobilityConfig mobility = mia_mobility_config(options);
  const mia::UserTraces traces =
      mia::generate_traces(ctx, mobility, options.seed + 1);
  mia::GameConfig base = mia_game_config(options, mobility);
  base.stream.epsilon = epsilon;

  struct Row {
    const char* label;
    mia::PriorConfig prior;
  };
  const Row rows[] = {
      {"subset, knows 100%",
       {mia::PriorKind::kSubsetOfLocations, 1.0}},
      {"subset, knows 50%", {mia::PriorKind::kSubsetOfLocations, 0.5}},
      {"subset, knows 25%", {mia::PriorKind::kSubsetOfLocations, 0.25}},
      {"past released groups", {mia::PriorKind::kPastGroups, 1.0}},
  };

  eval::Table table({"prior", "AUC", "accuracy"});
  for (const Row& row : rows) {
    mia::GameConfig config = base;
    config.prior = row.prior;
    const mia::GameResult result = mia::play_game(traces, config);
    table.add_row({row.label, common::fmt(result.auc),
                   common::fmt(result.accuracy())});
  }
  eval::print_section(std::cout, "distinguisher AUC by prior knowledge");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "paper: shrinking the known subset barely helps the "
                   "defense — any pool containing the target trains a "
                   "usable distinguisher; training through the noised "
                   "release keeps the attack viable too, since train and "
                   "challenge streams then share the noise distribution");
  return 0;
}

}  // namespace

void register_mia_priors(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "mia_priors",
      .description = "Membership inference prior-knowledge ablation: "
                     "subset-of-locations fractions vs past released groups",
      .extra_flags =
          [] {
            std::vector<std::string> flags = kMiaFlags;
            flags.push_back("eps");
            return flags;
          }(),
      .smoke_args = kMiaSmokeArgs,
      .run = run,
  });
}

}  // namespace poiprivacy::bench
