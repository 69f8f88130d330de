// attack_offline: the paper's evaluation loop, in process.
//
//   phase 1  train attack::SanitizationRecovery for every sanitized type
//            of one city on one shared training matrix (Figs. 2-3);
//   phase 2  eval::evaluate_attack over one location set against the
//            identity, sanitized+recovered, k-cloaked and DP releases
//            (Figs. 3, 5, 11);
//   phase 3  stream attack::LinkageEngine::Tracker over a
//            traj::TrajectoryStore population.
//
// It never touches src/service or src/net, so a serving change must not
// move any number here. A round builds a fresh world and runs the three
// phases once; rounds repeat until the pass has used its seconds, and each
// stage reports the median over rounds. Every round must reproduce the
// same output digest.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <optional>
#include <type_traits>

#include "attack/linkage_engine.h"
#include "attack/recovery.h"
#include "attack/region_reid.h"
#include "attack/trajectory_attack.h"
#include "cloak/kcloak.h"
#include "common/parallel.h"
#include "defense/opt_defense.h"
#include "defense/sanitizer.h"
#include "eval/runner.h"
#include "harness.h"
#include "obs/metrics.h"
#include "poi/city_model.h"
#include "traj/generators.h"

namespace perfbench {

namespace {

using namespace poiprivacy;

struct Sizes {
  std::size_t population = 10000;  ///< cloaking users (the paper's 10,000)
  std::size_t locations = 1000;    ///< phase-2 location set
  // Fig. 3's recovery set-up (bench/scenarios/fig03_sanitization.cpp at
  // its default size): 250 random-location training disks plus one disk
  // per rare POI, 50 validation disks.
  std::size_t train_samples = 250;
  std::size_t validation_samples = 50;
  std::size_t max_types = 0;       ///< 0 = every sanitized type
  std::size_t linkage_users = 12000;
  std::size_t releases = 8;
  std::size_t prior_taxis = 60;
  std::size_t prior_pairs = 200;
};

constexpr double kRadiusKm = 1.0;
constexpr std::size_t kCloakK = 20;

/// Everything built before the timed phases (what setup_s measures).
struct World {
  explicit World(poi::City c) : city(std::move(c)) {}
  poi::City city;
  std::optional<cloak::AdaptiveIntervalCloaker> cloaker;
  std::vector<geo::Point> locations;
  std::optional<defense::Sanitizer> sanitizer;
  std::optional<attack::TrajectoryAttack> pairwise;
  std::optional<attack::LinkageEngine> engine;
  traj::TrajectoryStore store;
};

std::unique_ptr<World> build_world(const Sizes& sizes, std::uint64_t seed) {
  std::unique_ptr<World> world;
  {
    const ScopedSpan span("poi.generate_city");
    world = std::make_unique<World>(
        poi::generate_city(poi::beijing_preset(), kCitySeed));
  }
  World& w = *world;
  const poi::PoiDatabase& db = w.city.db;
  {
    const ScopedSpan span("cloak.build");
    common::Rng pop_rng(seed + 1);
    w.cloaker.emplace(
        cloak::uniform_population(db.bounds(), sizes.population, pop_rng),
        db.bounds());
  }
  common::Rng loc_rng(seed + 3);
  w.locations = cloak::uniform_population(db.bounds(), sizes.locations, loc_rng);
  w.sanitizer.emplace(db, 10);
  {
    // The attacker's prior for the linkage step filter.
    const ScopedSpan span("attack.linkage_prior_train");
    traj::TaxiConfig prior;
    prior.num_taxis = sizes.prior_taxis;
    prior.points_per_taxi = 40;
    common::Rng prior_rng(seed + 4);
    std::vector<traj::ReleasePair> pairs = traj::extract_release_pairs(
        traj::generate_taxi_trajectories(w.city, prior, prior_rng), db,
        kRadiusKm, 10 * 60);
    if (pairs.size() > sizes.prior_pairs) pairs.resize(sizes.prior_pairs);
    w.pairwise.emplace(db, pairs, kRadiusKm, attack::TrajectoryAttackConfig{},
                       prior_rng);
    w.engine.emplace(db, *w.pairwise, kRadiusKm);
  }
  {
    const ScopedSpan span("traj.fill");
    traj::TaxiConfig population;
    population.num_taxis = sizes.linkage_users;
    population.points_per_taxi = sizes.releases;
    traj::fill_taxi_store(w.city, population, seed + 2, w.store,
                          common::global_pool());
  }
  return world;
}

/// Integer linkage tallies by release count (exact sums, so the ordered
/// fold is identical at any thread count).
struct Tally {
  std::vector<std::int64_t> survivors, unique, correct;
  explicit Tally(std::size_t releases = 0)
      : survivors(releases, 0), unique(releases, 0), correct(releases, 0) {}
  Tally& operator+=(const Tally& o) {
    for (std::size_t t = 0; t < survivors.size(); ++t) {
      survivors[t] += o.survivors[t];
      unique[t] += o.unique[t];
      correct[t] += o.correct[t];
    }
    return *this;
  }
};

struct RoundResult {
  double train_s = 0, eval_s = 0, linkage_s = 0;
  std::size_t models = 0, evaluated = 0, linked = 0;
  std::uint64_t digest = 0;
  bool invariants = true;
  std::vector<eval::AttackStats> attack_stats;
  double mean_accuracy = 0;
  std::uint64_t candidates = 0;  ///< summed |Phi| (traced rounds only)
};

std::uint64_t hash_stats(const eval::AttackStats& s, std::uint64_t h) {
  // Only the outcome counters: the anchor-cache traffic is reported per
  // layer, it is not an output of the attack.
  const std::uint64_t fields[] = {s.attempts, s.empty_releases, s.unique,
                                  s.correct};
  return fnv1a(fields, sizeof fields, h);
}

/// eval::evaluate_attack's location chunk (src/eval/runner.cpp).
constexpr std::size_t kEvalChunk = 8;

/// The baseline attack over every location against `release`, called as
/// release(l, r) or, for a noisy release, release(l, r, rng) with the
/// location's substream of `release_seed`. Untraced, this is
/// eval::evaluate_attack. Traced, the same evaluation is unrolled into its
/// public attack-layer calls (same pool, chunking, substreams and
/// reduction) so that each re-identification gets a span; every traced
/// round's digest must equal the untraced rounds', so the two agree.
template <typename Release>
eval::AttackStats evaluate(const World& w, const Release& release,
                           std::uint64_t release_seed, std::int64_t parent,
                           std::atomic<std::uint64_t>& candidates) {
  constexpr bool kSeeded =
      std::is_invocable_v<const Release&, geo::Point, double, common::Rng&>;
  const poi::PoiDatabase& db = w.city.db;
  if (!tracer::enabled()) {
    if constexpr (kSeeded) {
      return eval::evaluate_attack(db, w.locations, kRadiusKm,
                                   eval::SeededReleaseFn(release), release_seed);
    } else {
      return eval::evaluate_attack(db, w.locations, kRadiusKm,
                                   eval::ReleaseFn(release));
    }
  }
  const attack::RegionReidentifier reid(db);
  const common::Rng base(release_seed);
  const poi::AnchorCacheStats before = db.anchor_cache_stats();
  eval::AttackStats stats = common::ordered_reduce(
      common::global_pool(), w.locations.size(), kEvalChunk,
      eval::AttackStats{},
      [&](std::size_t i) {
        const geo::Point l = w.locations[i];
        poi::FrequencyVector released;
        if constexpr (kSeeded) {
          common::Rng rng = base.substream(i);
          released = release(l, kRadiusKm, rng);
        } else {
          released = release(l, kRadiusKm);
        }
        attack::ReidResult result;
        {
          const ScopedSpan span("attack.reid_infer", i, parent);
          result = reid.infer(released, kRadiusKm);
        }
        candidates.fetch_add(result.candidates.size(), std::memory_order_relaxed);
        eval::AttackStats one;
        one.attempts = 1;
        one.empty_releases = result.pivot_type.has_value() ? 0 : 1;
        one.unique = result.unique() ? 1 : 0;
        one.correct =
            result.unique() && attack::attack_success(result, db, l, kRadiusKm);
        return one;
      },
      [](eval::AttackStats acc, const eval::AttackStats& one) {
        acc.attempts += one.attempts;
        acc.empty_releases += one.empty_releases;
        acc.unique += one.unique;
        acc.correct += one.correct;
        return acc;
      });
  const poi::AnchorCacheStats after = db.anchor_cache_stats();
  stats.cache_hits = after.hits - before.hits;
  stats.cache_misses = after.misses - before.misses;
  return stats;
}

/// One round on a freshly built world, so that every round starts, like a
/// one-shot figure run, with the database's lazy state (anchor cache, tile
/// aggregates) empty.
RoundResult run_round(const World& w, const Sizes& sizes, std::uint64_t seed) {
  const poi::PoiDatabase& db = w.city.db;
  RoundResult out;
  std::uint64_t digest = fnv1a(nullptr, 0);

  // Phase 1: one model per sanitized type, one shared training matrix.
  std::vector<poi::TypeId> types = w.sanitizer->sanitized_types();
  if (sizes.max_types != 0 && types.size() > sizes.max_types) {
    types.resize(sizes.max_types);
  }
  attack::RecoveryConfig rc;
  rc.train_samples = sizes.train_samples;
  rc.validation_samples = sizes.validation_samples;
  rc.samples_per_rare_poi = 1;
  std::optional<attack::SanitizationRecovery> recovery;
  double t0 = now_seconds();
  {
    const ScopedSpan phase("bench.phase1_train");
    const ScopedSpan span("ml.recovery_train", types.size());
    common::Rng rng(seed + 5);
    recovery.emplace(db, types, kRadiusKm, rc, rng);
  }
  out.train_s = now_seconds() - t0;
  out.models = types.size();
  for (const double a : recovery->validation_accuracies()) {
    digest = fnv1a(&a, sizeof a, digest);
    out.invariants = out.invariants && a >= 0.0 && a <= 1.0;
  }
  out.mean_accuracy = recovery->mean_validation_accuracy();

  // Phase 2: the baseline attack against four releases. The releases run
  // on pool threads, so their spans name the phase span as parent. The
  // k-cloak release spells out KCloakDefense::release (cloak, then freq at
  // the region centre) so the two layers are timed apart.
  const defense::Sanitizer& sanitizer = *w.sanitizer;
  const cloak::AdaptiveIntervalCloaker& cloaker = *w.cloaker;
  defense::DpDefenseConfig dp_config;
  dp_config.k = kCloakK;
  dp_config.epsilon = 1.0;
  dp_config.delta = 0.2;
  dp_config.beta = 0.02;
  const defense::DpDefense dp(db, cloaker, dp_config);
  std::atomic<std::uint64_t> candidates{0};
  t0 = now_seconds();
  {
    const ScopedSpan phase("bench.phase2_eval");
    const std::int64_t parent = phase.id();
    const auto run = [&](const auto& release, std::uint64_t release_seed = 0) {
      out.attack_stats.push_back(
          evaluate(w, release, release_seed, parent, candidates));
    };
    run([&](geo::Point l, double r) {
      const ScopedSpan span("poi.freq", 0, parent);
      return db.freq(l, r);
    });
    run([&](geo::Point l, double r) {
      poi::FrequencyVector f;
      {
        const ScopedSpan span("poi.freq", 0, parent);
        f = db.freq(l, r);
      }
      {
        const ScopedSpan span("defense.sanitize", 0, parent);
        f = sanitizer.sanitize(std::move(f));
      }
      const ScopedSpan span("ml.recover", 0, parent);
      return recovery->recover(f);
    });
    run([&](geo::Point l, double r) {
      cloak::CloakResult cloaked;
      {
        const ScopedSpan span("cloak.cloak", 0, parent);
        cloaked = cloaker.cloak(l, kCloakK);
      }
      const ScopedSpan span("poi.freq", 0, parent);
      return db.freq(cloaked.region.center(), r);
    });
    run([&](geo::Point l, double r, common::Rng& rng) {
      const ScopedSpan span("defense.dp_release", 0, parent);
      return dp.release(l, r, rng);
    }, seed + 6);
  }
  out.eval_s = now_seconds() - t0;
  out.evaluated = 4 * w.locations.size();
  out.candidates = candidates.load();
  for (const eval::AttackStats& s : out.attack_stats) {
    digest = hash_stats(s, digest);
    out.invariants = out.invariants && s.counters_consistent() &&
                     s.attempts == w.locations.size();
  }

  // Phase 3: stream every user's releases through a tracker.
  const std::size_t releases = w.store.points_per_user();
  const std::size_t users = w.store.num_users();
  const attack::LinkageEngine& engine = *w.engine;
  t0 = now_seconds();
  Tally tally(releases);
  {
    const ScopedSpan phase("bench.phase3_linkage");
    const std::int64_t parent = phase.id();
    constexpr std::size_t kChunk = 64;
    tally = common::ordered_reduce(
        common::global_pool(), (users + kChunk - 1) / kChunk, 1,
        Tally(releases),
        [&](std::size_t chunk) {
          Tally part(releases);
          attack::LinkageEngine::Tracker tracker(engine);
          poi::FrequencyVector released;
          for (std::size_t u = chunk * kChunk;
               u < std::min(users, (chunk + 1) * kChunk); ++u) {
            const auto points = w.store.user_points(u);
            tracker.reset();
            for (std::size_t t = 0; t < points.size(); ++t) {
              {
                const ScopedSpan span("poi.freq", u, parent);
                db.freq_into(points[t].pos, kRadiusKm, released);
              }
              std::size_t survivors = 0;
              {
                const ScopedSpan span("attack.linkage_observe", u, parent);
                survivors = tracker.observe(released, points[t].time);
              }
              part.survivors[t] += static_cast<std::int64_t>(survivors);
              if (tracker.unique()) {
                part.unique[t] += 1;
                const geo::Point anchor =
                    db.poi(tracker.survivors().front()).pos;
                part.correct[t] +=
                    geo::distance(anchor, points.front().pos) <= kRadiusKm + 1e-9;
              }
            }
          }
          return part;
        },
        [](Tally acc, const Tally& part) {
          acc += part;
          return acc;
        });
  }
  out.linkage_s = now_seconds() - t0;
  out.linked = users;
  for (std::size_t t = 0; t < releases; ++t) {
    // Survivor sets never grow with more releases.
    if (t > 0) out.invariants &= tally.survivors[t] <= tally.survivors[t - 1];
    out.invariants &= tally.correct[t] <= tally.unique[t] &&
                      tally.unique[t] <= static_cast<std::int64_t>(users);
  }
  digest = fnv1a(tally.survivors.data(), releases * sizeof(std::int64_t), digest);
  digest = fnv1a(tally.unique.data(), releases * sizeof(std::int64_t), digest);
  digest = fnv1a(tally.correct.data(), releases * sizeof(std::int64_t), digest);
  out.digest = digest;
  return out;
}

struct Pass {
  std::vector<RoundResult> rounds;
  double stage(int which) const {
    std::vector<double> v;
    for (const RoundResult& r : rounds) {
      if (which == 1) v.push_back(r.train_s * 1e3 / static_cast<double>(r.models));
      if (which == 2) v.push_back(r.eval_s * 1e3 / static_cast<double>(r.evaluated));
      if (which == 3) v.push_back(r.linkage_s * 1e3 / static_cast<double>(r.linked));
    }
    return median(v);
  }
};

/// Before each round the world is built kSetupRepeats times, each build
/// timed into `setup` and dropped but the last, so the set-up samples are
/// spread over the whole pass like the stage samples.
Pass run_pass(const Sizes& sizes, std::uint64_t seed, double seconds,
              std::vector<double>& setup) {
  Pass pass;
  const double start = now_seconds();
  do {
    std::unique_ptr<World> world;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
      world.reset();
      const double t0 = now_seconds();
      world = build_world(sizes, seed);
      setup.push_back(now_seconds() - t0);
    }
    pass.rounds.push_back(run_round(*world, sizes, seed));
    const RoundResult& r = pass.rounds.back();
    std::cerr << "round " << pass.rounds.size() << ": train " << r.train_s
              << " s, eval " << r.eval_s << " s, linkage " << r.linkage_s
              << " s\n";
  } while (now_seconds() - start < seconds);
  return pass;
}

struct RegistryScrape {
  double task_sum = 0;
  std::uint64_t task_count = 0, tasks = 0, batches = 0;
  static RegistryScrape now() {
    obs::Registry& reg = obs::global_registry();
    const obs::HistogramSnapshot tasks = reg.histogram("parallel.task_seconds").snapshot();
    return {tasks.sum, tasks.count, reg.counter("parallel.tasks").value(),
            reg.counter("parallel.batches").value()};
  }
};

}  // namespace

Outcome run_attack_offline(const Options& options) {
  Sizes sizes;
  if (options.tiny) {
    sizes = {.population = 400, .locations = 16, .train_samples = 40,
             .validation_samples = 20, .max_types = 3, .linkage_users = 60,
             .releases = 4, .prior_taxis = 20, .prior_pairs = 64};
  }
  Outcome out;
  out.params = {{"city", "beijing"},
                {"radius_km", "1.0"},
                {"cloak_k", std::to_string(kCloakK)},
                {"population", std::to_string(sizes.population)},
                {"locations", std::to_string(sizes.locations)},
                {"train_samples", std::to_string(sizes.train_samples)},
                {"validation_samples", std::to_string(sizes.validation_samples)},
                {"linkage_users", std::to_string(sizes.linkage_users)},
                {"releases", std::to_string(sizes.releases)}};

  // The measured pass runs untraced; a traced run adds a second, traced
  // pass and reports the difference as the tracing overhead. One untimed
  // round first, so pool threads and the allocator are warm.
  std::vector<double> setup, unused;
  tracer::set_enabled(false);
  run_pass(sizes, options.seed, 0.0, unused);
  const Pass plain = run_pass(sizes, options.seed, options.seconds, setup);
  std::optional<Pass> traced;
  std::vector<SpanRecord> spans;
  RegistryScrape before = RegistryScrape::now(), after;
  if (options.trace) {
    tracer::clear();
    tracer::set_enabled(true);
    traced = run_pass(sizes, options.seed, options.seconds, unused);
    after = RegistryScrape::now();
    tracer::set_enabled(false);
    spans = tracer::collect();
  }

  // Correctness: every round of every pass reproduces one digest and
  // keeps the counter invariants.
  const std::uint64_t digest = plain.rounds.front().digest;
  std::uint64_t bad = 0, rounds = 0;
  std::vector<const Pass*> passes = {&plain};
  if (traced) passes.push_back(&*traced);
  for (const Pass* pass : passes) {
    for (const RoundResult& r : pass->rounds) {
      ++rounds;
      bad += (r.digest != digest || !r.invariants) ? 1 : 0;
    }
  }
  out.attempted = rounds;
  out.failed = bad;
  out.correct = bad == 0;
  out.digest = hex64(digest);
  const RoundResult& first = plain.rounds.front();
  std::cout << "digest " << out.digest << " models=" << first.models
            << " mean_validation_accuracy=" << first.mean_accuracy;
  for (const eval::AttackStats& s : first.attack_stats) {
    std::cout << " [" << s.attempts << "," << s.empty_releases << ","
              << s.unique << "," << s.correct << "]";
  }
  std::cout << "\n";

  out.end_to_end = {
      {"setup_s", median(setup), "s"},
      {"stage1_ms", plain.stage(1), "ms"},
      {"stage2_ms", plain.stage(2), "ms"},
      {"stage3_ms", plain.stage(3), "ms"},
  };
  if (!options.trace) return out;

  const Pass& tp = *traced;
  const auto us_median = [&](const char* name) {
    return median(tracer::durations(spans, name)) * 1e6;
  };
  std::uint64_t unique = 0, attempts = 0, hits = 0, lookups = 0, candidates = 0;
  for (const RoundResult& r : tp.rounds) {
    candidates += r.candidates;
    for (const eval::AttackStats& s : r.attack_stats) {
      unique += s.unique;
      attempts += s.attempts;
      hits += s.cache_hits;
      lookups += s.cache_hits + s.cache_misses;
    }
  }
  std::vector<double> train_s;
  for (const RoundResult& r : plain.rounds) train_s.push_back(r.train_s);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.per_layer = {
      {"train_s", median(train_s), "s"},
      {"eval_locations_per_s", 1e3 / plain.stage(2), "1/s"},
      {"linkage_users_per_s", 1e3 / plain.stage(3), "1/s"},
      {"ml.recovery_train_s", median(tracer::durations(spans, "ml.recovery_train")), "s"},
      {"ml.models", static_cast<double>(first.models), "count"},
      {"ml.recover_us", us_median("ml.recover"), "us"},
      {"attack.reid_infer_us", us_median("attack.reid_infer"), "us"},
      {"attack.candidates_per_infer", ratio(static_cast<double>(candidates), static_cast<double>(attempts)), "count"},
      {"attack.unique_share", ratio(static_cast<double>(unique), static_cast<double>(attempts)), "ratio"},
      {"poi.anchor_cache_hit_ratio", ratio(static_cast<double>(hits), static_cast<double>(lookups)), "ratio"},
      {"poi.freq_us", us_median("poi.freq"), "us"},
      {"cloak.cloak_us", us_median("cloak.cloak"), "us"},
      {"defense.sanitize_us", us_median("defense.sanitize"), "us"},
      {"defense.dp_release_us", us_median("defense.dp_release"), "us"},
      {"attack.linkage_observe_us", us_median("attack.linkage_observe"), "us"},
      {"traj.fill_s", median(tracer::durations(spans, "traj.fill")), "s"},
      {"parallel.task_seconds",
       ratio(after.task_sum - before.task_sum,
             static_cast<double>(after.task_count - before.task_count)), "s"},
      {"parallel.queue_depth",
       ratio(static_cast<double>(after.tasks - before.tasks),
             static_cast<double>(after.batches - before.batches)), "count"},
      {"trace.overhead.stage1", tp.stage(1) / plain.stage(1) - 1.0, "ratio"},
      {"trace.overhead.stage2", tp.stage(2) / plain.stage(2) - 1.0, "ratio"},
      {"trace.overhead.stage3", tp.stage(3) / plain.stage(3) - 1.0, "ratio"},
      {"trace.coverage.phase1", tracer::phase_coverage(spans, "bench.phase1_train"), "ratio"},
      {"trace.coverage.phase2", tracer::phase_coverage(spans, "bench.phase2_eval"), "ratio"},
      {"trace.coverage.phase3", tracer::phase_coverage(spans, "bench.phase3_linkage"), "ratio"},
  };
  return out;
}

}  // namespace perfbench
