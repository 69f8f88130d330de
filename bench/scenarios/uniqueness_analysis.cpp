// Location-uniqueness sweep (companion analysis, Cao et al. IMWUT'18):
// the fraction of each city that is re-identifiable from an honest POI
// aggregate, per query range — the quantity whose existence motivates the
// paper's attacks and defense.
#include <iostream>

#include "common/stats.h"
#include "eval/bench_options.h"
#include "eval/table.h"
#include "eval/uniqueness.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  const double cell = options.flags.get("cell", 1.0);
  options.print_context(
      "Uniqueness analysis — fraction of the city re-identifiable from "
      "honest aggregates (grid pitch " + common::fmt(cell, 1) + " km)");
  const eval::Workbench workbench(options.workbench_config());

  eval::Table table({"city", "r=0.5km", "r=1.0km", "r=2.0km", "r=4.0km",
                     "probes"});
  for (const poi::City* city : {&workbench.beijing(), &workbench.nyc()}) {
    std::vector<std::string> row{city->db.city_name()};
    std::size_t probes = 0;
    for (const double r : eval::kQueryRangesKm) {
      const eval::UniquenessMap map =
          eval::analyze_uniqueness(city->db, r, cell);
      row.push_back(common::fmt(map.uniqueness_ratio()));
      probes = map.cells.size();
    }
    row.push_back(std::to_string(probes));
    table.add_row(std::move(row));
  }
  eval::print_section(std::cout, "uniqueness ratio (unique / non-empty)");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "Cao et al. report that a substantial and growing "
                   "fraction of city locations is unique as r grows");
  return 0;
}

}  // namespace

void register_uniqueness_analysis(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "uniqueness_analysis",
      .description = "Companion analysis: fraction of each city unique from "
                     "honest aggregates",
      .extra_flags = {"cell"},
      .smoke_args = {"--cell", "2.0", "--locations", "8", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
