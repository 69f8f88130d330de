#include "service/release_service.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "dp/mechanisms.h"
#include "obs/metrics.h"

namespace poiprivacy::service {

namespace {

/// The one request check of serve_concurrent: a known policy, finite
/// coordinates, a finite radius in (0, diagonal of the city's bounding
/// box], and a query disk that touches the box. Nothing else is a real
/// query, and an unbounded radius would reach the double -> int cell
/// casts of the spatial index.
bool valid_request(const ReleaseRequest& request, std::size_t num_policies,
                   const geo::BBox& bounds) {
  const double r = request.radius;
  return request.policy < num_policies && std::isfinite(request.location.x) &&
         std::isfinite(request.location.y) && std::isfinite(r) && r > 0.0 &&
         r <= std::hypot(bounds.width(), bounds.height()) &&
         bounds.intersects_disk(request.location, r);
}

/// Registry mirrors of the ServiceStats counters. Observation only:
/// nothing here feeds back into admission, caching, or released vectors
/// (tests/obs_determinism_test.cpp).
struct ServiceMetrics {
  obs::Counter& requests;
  obs::Counter& granted;
  obs::Counter& degraded;
  obs::Counter& budget_exhausted;
  obs::Counter& invalid;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;

  static ServiceMetrics& get() {
    obs::Registry& reg = obs::global_registry();
    static ServiceMetrics* metrics = new ServiceMetrics{
        reg.counter("service.requests"),
        reg.counter("service.granted"),
        reg.counter("service.degraded"),
        reg.counter("service.budget_exhausted"),
        reg.counter("service.invalid"),
        reg.counter("service.cache_hits"),
        reg.counter("service.cache_misses"),
    };
    return *metrics;
  }
};

/// The per-status counter of a stats block (ServiceStats, the
/// concurrent atomics, or their ServiceMetrics mirrors).
template <typename Stats>
auto& status_slot(Stats& stats, ReleaseStatus status) noexcept {
  switch (status) {
    case ReleaseStatus::kGranted:
      return stats.granted;
    case ReleaseStatus::kDegraded:
      return stats.degraded;
    case ReleaseStatus::kBudgetExhausted:
      return stats.budget_exhausted;
    case ReleaseStatus::kInvalidRequest:
      break;
  }
  return stats.invalid;
}

/// One count into a service counter and its registry mirror.
void bump(std::atomic<std::uint64_t>& stat, obs::Counter& mirror) {
  stat.fetch_add(1, std::memory_order_relaxed);
  mirror.add(1);
}
template <typename Stats>
void bump_status(Stats& stats, ReleaseStatus status) {
  bump(status_slot(stats, status), status_slot(ServiceMetrics::get(), status));
}

}  // namespace

const char* status_name(ReleaseStatus status) noexcept {
  switch (status) {
    case ReleaseStatus::kGranted:
      return "granted";
    case ReleaseStatus::kDegraded:
      return "degraded";
    case ReleaseStatus::kBudgetExhausted:
      return "budget_exhausted";
    case ReleaseStatus::kInvalidRequest:
      return "invalid_request";
  }
  return "unknown";
}

std::uint64_t ServiceStats::count(ReleaseStatus status) const noexcept {
  return status_slot(*this, status);
}

ReleaseService::ReleaseService(const poi::PoiDatabase& db,
                               const cloak::AdaptiveIntervalCloaker& cloaker,
                               ServiceConfig config)
    : db_(&db),
      cloaker_(&cloaker),
      config_(std::move(config)),
      cache_(ReleaseCacheConfig{config_.cache_capacity, config_.cache_shards,
                                config_.cache_ttl_epochs}),
      sessions_(SessionTableConfig{config_.session_capacity,
                                   config_.session_shards,
                                   config_.session_ttl_epochs,
                                   config_.session_renew_epochs,
                                   config_.epsilon_ceiling,
                                   config_.delta_ceiling}),
      noise_base_(common::Rng(config_.seed).substream(0)),
      aggregate_base_(common::Rng(config_.seed).substream(1)) {
  if (config_.policies.empty()) {
    throw std::invalid_argument("service: needs at least one policy");
  }
  for (const ReleasePolicy& policy : config_.policies) {
    const bool gaussian = policy.release.noise == defense::DpNoiseKind::kGaussian;
    if (policy.release.k == 0 || policy.release.epsilon <= 0.0 ||
        policy.release.delta >= 1.0 ||
        policy.release.delta < (gaussian ? 1e-12 : 0.0)) {
      throw std::invalid_argument("service: ill-formed policy '" +
                                  policy.name + "'");
    }
    policy_costs_.push_back(dp::FixedBudget::cost_of(
        {policy.release.epsilon, policy.release.delta}));
  }
  if (config_.degrade_policy &&
      *config_.degrade_policy >= config_.policies.size()) {
    throw std::invalid_argument("service: degrade_policy out of range");
  }
}

ReleaseStatus ReleaseService::admit(UserId user, PolicyId requested,
                                    PolicyId& served) {
  const ChargeOutcome primary =
      sessions_.try_charge(user, policy_costs_[requested]);
  if (primary == ChargeOutcome::kCharged) {
    served = requested;
    return ReleaseStatus::kGranted;
  }
  // A full table refuses outright: degrading would need the same slot.
  if (primary == ChargeOutcome::kWouldExceed && config_.degrade_policy &&
      *config_.degrade_policy != requested &&
      sessions_.try_charge(user, policy_costs_[*config_.degrade_policy]) ==
          ChargeOutcome::kCharged) {
    served = *config_.degrade_policy;
    return ReleaseStatus::kDegraded;
  }
  return ReleaseStatus::kBudgetExhausted;
}

dp::PrivacyParams ReleaseService::user_spent(UserId user) const {
  return sessions_.spent(user);
}

dp::PrivacyParams ReleaseService::user_remaining(UserId user) const {
  return sessions_.remaining(user);
}

void ReleaseService::advance_epoch(std::uint64_t ticks) {
  sessions_.advance_epoch(ticks);
  cache_.advance_epoch(ticks);
  sessions_.sweep();
  sessions_.renew_windows();
  cache_.evict_expired();
}

ServiceStats ReleaseService::concurrent_stats() const {
  ServiceStats out;
  out.requests = concurrent_.requests.load(std::memory_order_relaxed);
  out.granted = concurrent_.granted.load(std::memory_order_relaxed);
  out.degraded = concurrent_.degraded.load(std::memory_order_relaxed);
  out.budget_exhausted =
      concurrent_.budget_exhausted.load(std::memory_order_relaxed);
  out.invalid = concurrent_.invalid.load(std::memory_order_relaxed);
  out.cache_hits = concurrent_.cache_hits.load(std::memory_order_relaxed);
  out.cache_misses = concurrent_.cache_misses.load(std::memory_order_relaxed);
  out.users = sessions_.stats().sessions_created;
  return out;
}

defense::CloakAggregate ReleaseService::compute_aggregate(
    const ReleaseCacheKey& key) const {
  // The dummy draw seeds from the key hash, so the aggregate is a pure
  // function of the key: recomputing after an eviction (or on another
  // thread) reproduces it bit-for-bit.
  common::Rng rng = aggregate_base_.substream(ReleaseCache::hash(key));
  const std::vector<geo::Point> dummies = cloaker_->region_dummy_locations(
      key.region, config_.policies[key.policy].release.k, rng);
  return defense::fold_dummies(*db_, dummies, key.radius);
}

std::vector<ReleaseResult> ReleaseService::serve(
    std::span<const ReleaseRequest> requests) {
  std::vector<ReleaseResult> results;
  results.reserve(requests.size());
  for (const ReleaseRequest& request : requests) {
    results.push_back(serve_concurrent(request));
  }
  return results;
}

ReleaseResult ReleaseService::serve_stream(const StreamRequest& request) {
  ServiceMetrics& metrics = ServiceMetrics::get();
  ReleaseResult out;
  // Arrival order assigns the noise substream, exactly like
  // serve_concurrent: a sequential caller is fully reproducible.
  const std::uint64_t noise_index =
      next_request_index_.fetch_add(1, std::memory_order_relaxed);
  bump(concurrent_.requests, metrics.requests);
  const StreamSource* source = stream_source_;
  const std::size_t windows =
      source == nullptr ? 0
                        : source->num_windows(request.begin_epoch,
                                              request.end_epoch);
  if (source == nullptr || request.policy >= config_.policies.size() ||
      request.series >= source->num_series() ||
      request.end_epoch > source->epochs() ||
      request.begin_epoch >= request.end_epoch || windows == 0) {
    bump_status(concurrent_, ReleaseStatus::kInvalidRequest);
    return out;
  }
  // One admission charge covers the whole block: W windows, each a
  // policy-cost release. Saturating multiply — an overflowing block can
  // only be refused, never undercharged. No degrade path: a degraded
  // stream block would still cost W windows of *some* budget, and the
  // caller asked for this policy's noise scale.
  const auto scale = [](std::uint32_t units, std::uint64_t w) {
    const std::uint64_t total = units * w;
    return total > std::uint64_t{dp::FixedBudget::kMaxUnits}
               ? dp::FixedBudget::kMaxUnits
               : static_cast<std::uint32_t>(total);
  };
  dp::FixedBudget cost = policy_costs_[request.policy];
  cost.epsilon_units = scale(cost.epsilon_units, windows);
  cost.delta_units = scale(cost.delta_units, windows);
  const ChargeOutcome charged = sessions_.try_charge(request.user_id, cost);
  out.spent = sessions_.spent(request.user_id);
  // A full table refuses fail-closed, indistinguishable from an
  // exhausted budget on the wire.
  out.status = charged == ChargeOutcome::kCharged
                   ? ReleaseStatus::kGranted
                   : ReleaseStatus::kBudgetExhausted;
  bump_status(concurrent_, out.status);
  if (out.status == ReleaseStatus::kBudgetExhausted) return out;
  out.served_policy = request.policy;
  // The raw block is policy-independent (noise is per-request), so all
  // policies share one kind-1 cache entry per window range.
  ReleaseCacheKey key;
  key.kind = 1;
  key.stream_begin = request.begin_epoch;
  key.stream_end = request.end_epoch;
  std::shared_ptr<const defense::CloakAggregate> block = cache_.get(key);
  if (block) {
    out.cache_hit = true;
    bump(concurrent_.cache_hits, metrics.cache_hits);
  } else {
    auto computed = std::make_shared<defense::CloakAggregate>();
    source->release_raw(request.begin_epoch, request.end_epoch,
                        computed->sum);
    computed->sensitivity.assign(1, source->sensitivity());
    computed->k = source->num_series();
    block = std::move(computed);
    cache_.put(key, block);
    bump(concurrent_.cache_misses, metrics.cache_misses);
  }
  // Per-request noise: one Laplace count per window for the requested
  // series, window-ascending (the same mechanism as mia/stream_release).
  const dp::LaplaceMechanism laplace(
      config_.policies[request.policy].release.epsilon,
      block->sensitivity[0]);
  common::Rng rng = noise_base_.substream(noise_index);
  const std::size_t stride = block->k;
  out.vector.resize(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    out.vector[w] =
        laplace.release_count(block->sum[w * stride + request.series], rng);
  }
  return out;
}

ReleaseResult ReleaseService::serve_concurrent(const ReleaseRequest& request) {
  ServiceMetrics& metrics = ServiceMetrics::get();
  ReleaseResult out;
  // The arrival order that wins this fetch_add IS the request's identity
  // for noise purposes — a sequential caller's substream assignment is
  // exactly its call order.
  const std::uint64_t noise_index =
      next_request_index_.fetch_add(1, std::memory_order_relaxed);
  bump(concurrent_.requests, metrics.requests);
  if (!valid_request(request, config_.policies.size(), db_->bounds())) {
    bump_status(concurrent_, ReleaseStatus::kInvalidRequest);
    return out;  // a spend-nothing kInvalidRequest
  }
  out.status = admit(request.user_id, request.policy, out.served_policy);
  out.spent = sessions_.spent(request.user_id);
  bump_status(concurrent_, out.status);
  if (out.status == ReleaseStatus::kBudgetExhausted) return out;
  const PolicyId served = out.served_policy;
  ReleaseCacheKey key;
  key.region =
      cloaker_->cloak(request.location, config_.policies[served].release.k)
          .region;
  key.radius = request.radius;
  key.policy = served;
  std::shared_ptr<const defense::CloakAggregate> aggregate = cache_.get(key);
  if (aggregate) {
    out.cache_hit = true;
    bump(concurrent_.cache_hits, metrics.cache_hits);
  } else {
    // No cross-thread coalescing here: two threads cold-probing one key
    // both compute, and the later put refreshes the (identical) entry.
    aggregate = std::make_shared<const defense::CloakAggregate>(
        compute_aggregate(key));
    cache_.put(key, aggregate);
    bump(concurrent_.cache_misses, metrics.cache_misses);
  }
  const defense::DpDefenseConfig& policy = config_.policies[served].release;
  common::Rng rng = noise_base_.substream(noise_index);
  out.vector = defense::postprocess_release(
      *db_, defense::noise_aggregate(policy, *aggregate, rng), policy.beta,
      policy.max_injection);
  return out;
}

}  // namespace poiprivacy::service
