// Ablation (DESIGN.md): the trajectory attack's distance estimator —
// epsilon-SVR (the paper's choice) vs closed-form kernel ridge regression
// vs the trivial mean predictor, on the same release-pair corpus.
#include <iostream>

#include "attack/trajectory_attack.h"
#include "common/stats.h"
#include "eval/bench_options.h"
#include "eval/table.h"
#include "ml/kernel_ridge.h"
#include "ml/svr.h"
#include "scenarios/scenarios.h"
#include "traj/generators.h"
#include "traj/trajectory.h"

namespace poiprivacy::bench {

namespace {

struct Corpus {
  ml::Matrix x;
  std::vector<double> y;
};

Corpus build_corpus(const poi::PoiDatabase& db,
                    std::span<const traj::ReleasePair> pairs, double r) {
  Corpus corpus;
  for (const traj::ReleasePair& pair : pairs) {
    const poi::FrequencyVector f1 = db.freq(pair.first, r);
    const poi::FrequencyVector f2 = db.freq(pair.second, r);
    std::vector<double> row;
    row.push_back(static_cast<double>(pair.duration()));
    row.push_back(static_cast<double>(poi::l1_distance(f1, f2)));
    ml::one_hot(static_cast<std::size_t>(traj::hour_of_day(pair.first_time)),
                24, row);
    ml::one_hot(static_cast<std::size_t>(traj::day_of_week(pair.first_time)),
                7, row);
    corpus.x.push_row(row);
    corpus.y.push_back(pair.distance_km());
  }
  return corpus;
}

int run(const eval::BenchOptions& options) {
  const double r = options.flags.get("r", 1.0);
  const auto max_pairs = static_cast<std::size_t>(
      options.flags.get("pairs", static_cast<std::int64_t>(800)));
  options.print_context(
      "Ablation — trajectory-distance regressors (r = " + common::fmt(r, 1) +
      " km)");
  const eval::Workbench workbench(options.workbench_config());
  const poi::PoiDatabase& db = workbench.beijing().db;

  std::vector<traj::ReleasePair> pairs = traj::extract_release_pairs(
      workbench.taxi_trajectories(), db, r, 10 * 60);
  if (pairs.size() > max_pairs) pairs.resize(max_pairs);
  const Corpus corpus = build_corpus(db, pairs, r);
  common::Rng rng(options.seed);
  const auto [train_idx, test_idx] =
      ml::train_test_split(corpus.x.rows(), 0.3, rng);
  ml::StandardScaler scaler;
  const ml::Matrix x_train =
      scaler.fit_transform(ml::take_rows(corpus.x, train_idx));
  const ml::Matrix x_test =
      scaler.transform(ml::take_rows(corpus.x, test_idx));
  const std::vector<double> y_train = ml::take(std::span(corpus.y), train_idx);
  const std::vector<double> y_test = ml::take(std::span(corpus.y), test_idx);

  eval::Table table({"regressor", "MAE km", "RMSE km", "train n"});

  {
    ml::Svr svr;
    common::Rng train_rng(options.seed + 1);
    svr.train(x_train, y_train, train_rng);
    const auto pred = svr.predict(x_test);
    table.add_row({"epsilon-SVR (paper)",
                   common::fmt(ml::mean_absolute_error(y_test, pred)),
                   common::fmt(ml::root_mean_squared_error(y_test, pred)),
                   std::to_string(x_train.rows())});
  }
  {
    ml::KernelRidgeConfig config;
    config.lambda = 1.0;
    ml::KernelRidge ridge(config);
    ridge.train(x_train, y_train);
    const auto pred = ridge.predict(x_test);
    table.add_row({"kernel ridge",
                   common::fmt(ml::mean_absolute_error(y_test, pred)),
                   common::fmt(ml::root_mean_squared_error(y_test, pred)),
                   std::to_string(x_train.rows())});
  }
  {
    double mean = 0.0;
    for (const double v : y_train) mean += v;
    mean /= static_cast<double>(y_train.size());
    const std::vector<double> pred(y_test.size(), mean);
    table.add_row({"mean predictor",
                   common::fmt(ml::mean_absolute_error(y_test, pred)),
                   common::fmt(ml::root_mean_squared_error(y_test, pred)),
                   std::to_string(x_train.rows())});
  }
  eval::print_section(std::cout, "trajectory distance estimation");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "both kernel models should clearly beat the mean "
                   "predictor; their MAEs set the pair-filter tolerance");
  return 0;
}

}  // namespace

void register_ablation_regressors(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "ablation_regressors",
      .description = "Ablation: epsilon-SVR vs kernel ridge vs mean predictor "
                     "for trajectory distance",
      .extra_flags = {"r", "pairs"},
      .smoke_args = {"--pairs", "80", "--locations", "10", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
