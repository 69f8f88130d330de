// Figure 7: mean search area of the fine-grained attack as the number of
// auxiliary anchors grows (r = 2 km), on all four datasets. Also runs the
// DESIGN.md ablation of Algorithm 1's F_diff-sorted traversal order when
// --ablate-order is passed.
#include <iostream>

#include "common/stats.h"
#include "eval/bench_options.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

void run_sweep(const eval::Workbench& workbench, double r, bool sort_by_diff,
               std::ostream& out) {
  const std::size_t aux_counts[] = {5, 10, 20, 40};
  eval::Table table({"dataset", "MAXaux=5", "MAXaux=10", "MAXaux=20",
                     "MAXaux=40", "baseline pi r^2"});
  for (const eval::DatasetKind kind : eval::kAllDatasets) {
    const poi::PoiDatabase& db = workbench.city_of(kind).db;
    std::vector<std::string> row{eval::dataset_name(kind)};
    for (const std::size_t max_aux : aux_counts) {
      attack::FineGrainedConfig config;
      config.max_aux = max_aux;
      config.sort_by_diff = sort_by_diff;
      const eval::FineGrainedStats stats = eval::evaluate_fine_grained(
          db, workbench.locations(kind), r, config);
      row.push_back(common::fmt(stats.mean_area(), 3));
    }
    row.push_back(common::fmt(M_PI * r * r, 2));
    table.add_row(std::move(row));
  }
  table.print(out);
}

int run(const eval::BenchOptions& options) {
  const double r = options.flags.get("r", 2.0);
  options.print_context(
      "Figure 7 — mean search area (km^2) vs number of auxiliary anchors, "
      "r = " + common::fmt(r, 1) + " km");
  const eval::Workbench workbench(options.workbench_config());

  eval::print_section(std::cout, "Fig. 7 — F_diff-sorted traversal (paper)");
  run_sweep(workbench, r, /*sort_by_diff=*/true, std::cout);

  if (options.flags.get("ablate-order", false)) {
    eval::print_section(std::cout,
                        "Ablation — type-id traversal (unsorted)");
    run_sweep(workbench, r, /*sort_by_diff=*/false, std::cout);
  }
  eval::print_note(std::cout,
                   "paper: more anchors shrink the area with diminishing "
                   "returns; ~0.26-1.35 km^2 at MAXaux=40 across datasets");
  return 0;
}

}  // namespace

void register_fig07_aux_anchors(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "fig07_aux_anchors",
      .description = "Fig. 7: fine-grained search area vs auxiliary-anchor "
                     "budget (+ traversal-order ablation)",
      .extra_flags = {"ablate-order", "r"},
      .smoke_args = {"--locations", "8", "--ablate-order", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
