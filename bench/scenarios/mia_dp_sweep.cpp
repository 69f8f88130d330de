// Membership inference vs the differentially private release: the same
// distinguishing game as mia_raw, with the aggregate stream noised by
// the per-window Laplace mechanism at a sweep of epsilons. The AUC
// should fall monotonically toward the 0.5 coin-flip as the budget
// shrinks — the defense's operating curve against the Pyrgelis-style
// adversary. `--json FILE` additionally writes the table as one JSON
// document (the committed BENCH_mia.json is one such run).
#include <fstream>
#include <iostream>

#include "attack/attack_context.h"
#include "common/stats.h"
#include "eval/json.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "mia_common.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  const std::string json_path = options.flags.get("json", std::string());
  options.print_context(
      "Membership inference vs the DP aggregate release — AUC vs epsilon "
      "(per-window Laplace, subset-of-locations prior)");
  const eval::Workbench workbench(options.workbench_config());
  const attack::AttackContext ctx(workbench.beijing().db);
  const mia::MobilityConfig mobility = mia_mobility_config(options);
  const mia::UserTraces traces =
      mia::generate_traces(ctx, mobility, options.seed + 1);
  const mia::GameConfig base = mia_game_config(options, mobility);

  // 0 = raw release; the rest sweep the per-window budget downward.
  const double epsilons[] = {0.0, 10.0, 5.0, 2.0, 1.0, 0.5, 0.1};

  eval::JsonWriter json;
  json.begin_object();
  json.field("scenario", "mia_dp_sweep");
  json.field("seed", static_cast<std::uint64_t>(options.seed));
  json.field("users", static_cast<std::uint64_t>(mobility.num_users));
  json.field("group_size", static_cast<std::uint64_t>(base.group_size));
  json.field("trials", static_cast<std::uint64_t>(base.trials));
  json.key("rows");
  json.begin_array();

  eval::Table table({"epsilon", "AUC", "accuracy", "peak window eps",
                     "noised releases"});
  for (const double eps : epsilons) {
    mia::GameConfig config = base;
    config.stream.epsilon = eps;
    const mia::GameResult result = mia::play_game(traces, config);
    table.add_row({eps == 0.0 ? "raw" : common::fmt(eps, 1),
                   common::fmt(result.auc), common::fmt(result.accuracy()),
                   common::fmt(result.peak_window.epsilon, 1),
                   std::to_string(result.dp_releases)});
    json.begin_object();
    json.field("epsilon", eps);
    json.field("raw", eps == 0.0);
    json.field("auc", result.auc);
    json.field("accuracy", result.accuracy());
    json.field("peak_window_epsilon", result.peak_window.epsilon);
    json.field("dp_releases", static_cast<std::uint64_t>(result.dp_releases));
    json.end_object();
  }
  json.end_array();
  json.end_object();

  eval::print_section(std::cout, "distinguisher AUC vs per-window epsilon");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "paper: the Laplace stream defense degrades the "
                   "distinguisher smoothly toward the 0.5 coin-flip; the "
                   "peak-window column is the accountant's realized cost");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "mia_dp_sweep: cannot write " << json_path << "\n";
      return 1;
    }
    out << json.str() << "\n";
    if (!out) return 1;
  }
  return 0;
}

}  // namespace

void register_mia_dp_sweep(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "mia_dp_sweep",
      .description = "Membership inference vs the DP release: AUC vs "
                     "epsilon sweep (--json FILE for the raw table)",
      .extra_flags =
          [] {
            std::vector<std::string> flags = kMiaFlags;
            flags.push_back("json");
            return flags;
          }(),
      .smoke_args = kMiaSmokeArgs,
      .run = run,
  });
}

}  // namespace poiprivacy::bench
