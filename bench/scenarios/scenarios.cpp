#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

void register_all_scenarios() {
  eval::ScenarioRegistry& registry = eval::ScenarioRegistry::instance();
  if (!registry.all().empty()) return;
  register_fig02_sanitize_accuracy(registry);
  register_fig03_sanitization(registry);
  register_fig04_geoind(registry);
  register_fig05_kcloak(registry);
  register_fig06_finegrained_cdf(registry);
  register_fig07_aux_anchors(registry);
  register_fig08_trajectory(registry);
  register_fig09_10_nonprivate_defense(registry);
  register_fig11_12_dp_defense(registry);
  register_ablation_dp_noise(registry);
  register_ablation_recovery_models(registry);
  register_ablation_regressors(registry);
  register_ablation_robust_attack(registry);
  register_ext_category_defense(registry);
  register_ext_chain_attack(registry);
  register_uniqueness_analysis(registry);
  register_mia_raw(registry);
  register_mia_dp_sweep(registry);
  register_mia_priors(registry);
  register_linkage_100k(registry);
  register_stream_utility(registry);
}

int run_scenario_main(std::string_view name, int argc,
                      const char* const* argv) {
  register_all_scenarios();
  return eval::ScenarioRegistry::instance().run_main(name, argc, argv);
}

}  // namespace poiprivacy::bench
