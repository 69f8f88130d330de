// Ablation (DESIGN.md): the sanitization-recovery classifier family —
// the paper's RBF-SVM vs linear-kernel SVM vs logistic regression, on
// the same rare-type prediction task (Beijing, sampled types).
#include <iostream>

#include "common/stats.h"
#include "defense/sanitizer.h"
#include "eval/bench_options.h"
#include "eval/table.h"
#include "ml/logistic.h"
#include "ml/svm.h"
#include "ml/validation.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

struct Task {
  ml::Matrix x_train;
  ml::Matrix x_valid;
  std::vector<std::vector<int>> train_labels;  ///< per sanitized type
  std::vector<std::vector<int>> valid_labels;
};

Task build_task(const poi::PoiDatabase& db,
                std::span<const poi::TypeId> types, double r,
                std::size_t n_train, std::size_t n_valid, common::Rng& rng) {
  std::vector<poi::TypeId> visible;
  std::vector<bool> sanitized(db.num_types(), false);
  for (const poi::TypeId t : types) sanitized[t] = true;
  for (poi::TypeId t = 0; t < db.num_types(); ++t) {
    if (!sanitized[t]) visible.push_back(t);
  }
  const auto sample = [&](std::size_t n, ml::Matrix& x,
                          std::vector<std::vector<int>>& labels) {
    labels.assign(types.size(), {});
    for (std::size_t i = 0; i < n; ++i) {
      const geo::Point l{rng.uniform(db.bounds().min_x, db.bounds().max_x),
                         rng.uniform(db.bounds().min_y, db.bounds().max_y)};
      const poi::FrequencyVector f = db.freq(l, r);
      std::vector<double> row;
      row.reserve(visible.size());
      for (const poi::TypeId t : visible) row.push_back(f[t]);
      x.push_row(row);
      for (std::size_t m = 0; m < types.size(); ++m) {
        labels[m].push_back(f[types[m]]);
      }
    }
  };
  Task task;
  sample(n_train, task.x_train, task.train_labels);
  sample(n_valid, task.x_valid, task.valid_labels);
  ml::StandardScaler scaler;
  task.x_train = scaler.fit_transform(task.x_train);
  task.x_valid = scaler.transform(task.x_valid);
  return task;
}

struct ModelScore {
  double accuracy = 0.0;
  double macro_f1 = 0.0;
};

/// Mean validation accuracy plus macro-F1 over the per-type tasks. The
/// confusion matrix (ml/validation) exposes what accuracy hides here:
/// the zero class dominates, so macro-F1 is the column that separates
/// the families on the rare positive counts.
template <typename Model>
ModelScore mean_score(const Task& task, common::Rng& rng,
                      const Model& prototype) {
  ModelScore score;
  for (std::size_t m = 0; m < task.train_labels.size(); ++m) {
    Model model = prototype;
    model.train(task.x_train, task.train_labels[m], rng);
    const std::vector<int> predicted = model.predict(task.x_valid);
    ml::ConfusionMatrix confusion;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      confusion.add(task.valid_labels[m][i], predicted[i]);
    }
    score.accuracy += confusion.accuracy();
    score.macro_f1 += ml::macro_f1(confusion);
  }
  const auto n = static_cast<double>(task.train_labels.size());
  score.accuracy /= n;
  score.macro_f1 /= n;
  return score;
}

int run(const eval::BenchOptions& options) {
  const auto num_types = static_cast<std::size_t>(
      options.flags.get("types", static_cast<std::int64_t>(12)));
  const auto n_train = static_cast<std::size_t>(options.flags.get(
      "train", static_cast<std::int64_t>(options.full ? 1500 : 300)));
  options.print_context(
      "Ablation — recovery classifier families (Beijing)");
  const eval::Workbench workbench(options.workbench_config());
  const poi::PoiDatabase& db = workbench.beijing().db;
  const defense::Sanitizer sanitizer(db, 10);

  common::Rng pick_rng(options.seed + 7);
  std::vector<poi::TypeId> types = sanitizer.sanitized_types();
  if (types.size() > num_types) {
    const auto idx = pick_rng.sample_indices(types.size(), num_types);
    std::vector<poi::TypeId> chosen;
    for (const std::size_t i : idx) chosen.push_back(types[i]);
    types = std::move(chosen);
  }

  eval::Table table({"r_km", "RBF acc", "RBF F1", "linear acc", "linear F1",
                     "logistic acc", "logistic F1"});
  for (const double r : {1.0, 2.0}) {
    common::Rng rng(options.seed + static_cast<std::uint64_t>(r * 10));
    const Task task = build_task(db, types, r, n_train, 150, rng);

    ml::SvmConfig rbf;
    ml::SvmConfig linear;
    linear.kernel.kind = ml::KernelKind::kLinear;
    const ModelScore s_rbf = mean_score(task, rng, ml::SvmClassifier(rbf));
    const ModelScore s_lin = mean_score(task, rng, ml::SvmClassifier(linear));
    const ModelScore s_log = mean_score(task, rng, ml::LogisticClassifier());
    table.add_row({common::fmt(r, 1), common::fmt(s_rbf.accuracy),
                   common::fmt(s_rbf.macro_f1), common::fmt(s_lin.accuracy),
                   common::fmt(s_lin.macro_f1), common::fmt(s_log.accuracy),
                   common::fmt(s_log.macro_f1)});
  }
  eval::print_section(std::cout,
                      "mean validation accuracy / macro-F1 over " +
                          std::to_string(types.size()) + " sanitized types");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "the task is dominated by the zero class, so every "
                   "family's accuracy is high; macro-F1 exposes the gap "
                   "on the positive cases that matter for the attack, "
                   "where the RBF kernel wins");
  return 0;
}

}  // namespace

void register_ablation_recovery_models(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "ablation_recovery_models",
      .description = "Ablation: RBF-SVM vs linear SVM vs logistic regression "
                     "for sanitization recovery",
      .extra_flags = {"types", "train"},
      .smoke_args = {"--types", "3", "--train", "60", "--locations", "8",
                     "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
