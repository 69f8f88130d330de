// Figure 6: CDF of the fine-grained attack's search area (MAX_aux = 20)
// over the four datasets and query ranges. Cao et al.'s baseline always
// needs pi r^2; the paper reports that ~80% of cases need at most a
// quarter of that.
#include <iostream>

#include "common/stats.h"
#include "eval/bench_options.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  const auto max_aux = static_cast<std::size_t>(
      options.flags.get("max-aux", static_cast<std::int64_t>(20)));
  options.print_context(
      "Figure 6 — CDF of the fine-grained attack's search area");
  const eval::Workbench workbench(options.workbench_config());

  attack::FineGrainedConfig config;
  config.max_aux = max_aux;

  for (const double r : eval::kQueryRangesKm) {
    const double baseline_area = M_PI * r * r;
    eval::print_section(
        std::cout, "Fig. 6 — r = " + common::fmt(r, 1) +
                       " km (Cao et al. baseline area = " +
                       common::fmt(baseline_area, 2) + " km^2)");
    eval::Table table({"dataset", "P[A<=1/16]", "P[A<=1/8]", "P[A<=1/4]",
                       "P[A<=1/2]", "P[A<=1]", "mean km^2", "successes"});
    for (const eval::DatasetKind kind : eval::kAllDatasets) {
      const poi::PoiDatabase& db = workbench.city_of(kind).db;
      const eval::FineGrainedStats stats = eval::evaluate_fine_grained(
          db, workbench.locations(kind), r, config);
      const std::vector<double> thresholds{
          baseline_area / 16.0, baseline_area / 8.0, baseline_area / 4.0,
          baseline_area / 2.0, baseline_area};
      const auto cdf = common::empirical_cdf(stats.areas_km2, thresholds);
      table.add_row({eval::dataset_name(kind), common::fmt(cdf[0].fraction),
                     common::fmt(cdf[1].fraction), common::fmt(cdf[2].fraction),
                     common::fmt(cdf[3].fraction), common::fmt(cdf[4].fraction),
                     common::fmt(stats.mean_area(), 3),
                     std::to_string(stats.successes)});
    }
    table.print(std::cout);
  }
  eval::print_note(std::cout,
                   "paper: in ~80% of cases the search area is at most a "
                   "quarter of pi r^2, improving with larger r");
  return 0;
}

}  // namespace

void register_fig06_finegrained_cdf(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "fig06_finegrained_cdf",
      .description = "Fig. 6: CDF of the fine-grained attack's search area",
      .extra_flags = {"max-aux"},
      .smoke_args = {"--locations", "10", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
