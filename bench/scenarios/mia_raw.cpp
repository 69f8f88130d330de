// Membership inference on raw aggregate streams (Pyrgelis et al.,
// "Knock Knock, Who's There?", adapted to the POI tile grid): the
// aggregator publishes unperturbed sliding-window per-tile counts, the
// adversary knows a subset of the population's traces, and the
// distinguishing game measures how well each feature set / model family
// separates "target in the group" from "target absent".
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
  options.print_context(
      "Membership inference — raw aggregate streams, subset-of-locations "
      "prior (synthetic Beijing population)");
  const eval::Workbench workbench(options.workbench_config());
  const attack::AttackContext ctx(workbench.beijing().db);
  const mia::MobilityConfig mobility = mia_mobility_config(options);
  const mia::UserTraces traces =
      mia::generate_traces(ctx, mobility, options.seed + 1);
  const mia::GameConfig base = mia_game_config(options, mobility);

  eval::Table table({"features", "logistic AUC", "logistic acc", "svm AUC",
                     "svm acc"});
  for (const mia::FeatureSet features : mia::kAllFeatureSets) {
    std::vector<std::string> row{mia::feature_set_name(features)};
    for (const mia::DistinguisherKind kind : mia::kAllDistinguishers) {
      mia::GameConfig config = base;
      config.features = features;
      config.distinguisher.kind = kind;
      const mia::GameResult result = mia::play_game(traces, config);
      row.push_back(common::fmt(result.auc));
      row.push_back(common::fmt(result.accuracy()));
    }
    table.add_row(std::move(row));
  }
  eval::print_section(std::cout,
                      "distinguisher AUC / accuracy, " +
                          std::to_string(base.trials) + " trials x " +
                          std::to_string(base.test_pairs) + " in/out pairs");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "paper: raw aggregates of routine-driven mobility leak "
                   "membership almost perfectly through the flat count "
                   "vectors; differencing or summarizing the windows "
                   "discards the stable routine signal the distinguisher "
                   "keys on");
  return 0;
}

}  // namespace

void register_mia_raw(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "mia_raw",
      .description = "Membership inference on raw aggregate streams: "
                     "feature sets x distinguisher families",
      .extra_flags = kMiaFlags,
      .smoke_args = kMiaSmokeArgs,
      .run = run,
  });
}

}  // namespace poiprivacy::bench
