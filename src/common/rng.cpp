#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace poiprivacy::common {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  // Unsigned arithmetic: hi - lo and lo + offset wrap instead of
  // overflowing when the range spans more than half of int64.
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias: draws at or above
  // limit = max() - max() % range are redrawn. As max() % range < range,
  // every draw <= max() - range is below the limit, so the division that
  // computes it is only paid for the rare draw above that.
  std::uint64_t draw = (*this)();
  if (draw > max() - range) {
    const std::uint64_t limit = max() - max() % range;
    while (draw >= limit) draw = (*this)();
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   draw % range);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) noexcept {
  assert(rate > 0.0);
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

double Rng::laplace(double scale) noexcept {
  assert(scale > 0.0);
  const double u = uniform() - 0.5;
  return -scale * std::copysign(std::log1p(-2.0 * std::abs(u)), u);
}

double Rng::gamma2(double rate) noexcept {
  return exponential(rate) + exponential(rate);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::size_t Rng::categorical(const std::vector<double>& weights) noexcept {
  assert(!weights.empty());
  double total = 0.0;
  for (const double w : weights) total += w;
  assert(total > 0.0);
  double pick = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() noexcept {
  return Rng{(*this)() ^ 0xd1b54a32d192ed03ULL};
}

Rng Rng::substream(std::uint64_t task_index) const noexcept {
  // splitmix64 adds the golden-ratio increment before mixing, so index 0
  // does not map to the base stream and nearby indices decorrelate fully.
  std::uint64_t sm = task_index;
  return Rng{seed_ ^ splitmix64(sm)};
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n,
                                             std::size_t k) noexcept {
  assert(k <= n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: after k swaps the prefix holds the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace poiprivacy::common
