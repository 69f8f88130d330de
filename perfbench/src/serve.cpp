// serve_hot / serve_cold: an open loop of independent users against an
// in-process loopback net::ReleaseServer (2 workers), driven by one
// generator thread over 2 connections. Each user's requests stay on one
// connection in trace order, so every reply's status must equal the
// status a service::ReleaseService::serve batch oracle gives the same
// request on the same trace.
//
//   serve_hot   many requests per resident user, a release working set
//               that fits the cache: admission, cloak, Phase-F noise and
//               wire framing dominate;
//   serve_cold  many first-contact users with few requests each and a
//               cache far smaller than the set of cloak regions: session
//               claims, compute_aggregate and cache insert/evict dominate.
//
// The schedule has three fixed offered rates: two below the server's
// capacity (latency) and one above it (throughput). Every request is
// timed from when it was due, not when it was sent.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cmath>
#include <deque>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "cloak/kcloak.h"
#include "harness.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "poi/city_model.h"
#include "service/workload.h"

namespace perfbench {

namespace {

using namespace poiprivacy;

struct Shape {
  std::size_t requests_per_user;
  std::size_t cache_capacity;
  double rates[3];  ///< offered req/s: low, high, above capacity
};

// Frozen offered rates (req/s): about 1/4 and 1/2 of the capacity this
// code measured on a 4-vCPU x86-64 VM (hot ~40k, cold ~22k req/s), and a
// step well above it. The sub-capacity rates sit below 2/3 so that the
// ~30% capacity dips seen on a shared host do not turn them into
// overload.
constexpr Shape kHot{20, 4096, {10000, 20000, 60000}};
constexpr Shape kCold{4, 64, {5000, 10000, 40000}};
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWorkers = 2;
constexpr double kDrainSeconds = 30.0;  ///< wait for replies after the last send

service::ServiceConfig service_config(const Shape& shape, std::uint64_t seed) {
  service::ServiceConfig config;
  config.policies.push_back(
      {"interactive", {.k = 16, .epsilon = 0.5, .delta = 0.01}});
  config.policies.push_back(
      {"coarse", {.k = 32, .epsilon = 0.1, .delta = 0.001}});
  config.degrade_policy = 1;
  config.epsilon_ceiling = 6.0;
  config.cache_capacity = shape.cache_capacity;
  config.session_capacity = std::size_t{1} << 18;
  config.seed = seed;
  return config;
}

/// A service with its loopback server, started.
struct Serving {
  Serving(const poi::PoiDatabase& db, const cloak::AdaptiveIntervalCloaker& c,
          const service::ServiceConfig& config)
      : service(db, c, config),
        server(service, {.port = 0, .workers = kWorkers}) {
    server.start();
  }
  service::ReleaseService service;
  net::ReleaseServer server;
};

struct World {
  explicit World(poi::City c) : city(std::move(c)) {}
  poi::City city;
  std::optional<cloak::AdaptiveIntervalCloaker> cloaker;
  std::vector<service::ReleaseRequest> trace;
  std::unique_ptr<Serving> serving;
};

std::unique_ptr<World> build_world(const Shape& shape, std::size_t requests,
                                   std::uint64_t seed) {
  std::unique_ptr<World> world;
  {
    const ScopedSpan span("poi.generate_city");
    world = std::make_unique<World>(
        poi::generate_city(poi::beijing_preset(), kCitySeed));
  }
  World& w = *world;
  {
    const ScopedSpan span("cloak.build");
    common::Rng pop_rng(seed + 1);
    w.cloaker.emplace(
        cloak::uniform_population(w.city.db.bounds(), 10000, pop_rng),
        w.city.db.bounds());
  }
  {
    const ScopedSpan span("service.generate_workload");
    service::WorkloadConfig workload;
    workload.requests_per_user = shape.requests_per_user;
    workload.num_users =
        (requests + shape.requests_per_user - 1) / shape.requests_per_user;
    workload.seed = seed + 2;
    workload.policy_weights = {0.8, 0.2};
    w.trace = service::requests_of(service::generate_workload(w.city, workload));
    w.trace.resize(requests);
  }
  {
    const ScopedSpan span("net.server_start");
    w.serving = std::make_unique<Serving>(w.city.db, *w.cloaker,
                                          service_config(shape, seed));
  }
  return world;
}

class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

struct Conn {
  std::unique_ptr<Fd> fd;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::vector<std::uint8_t> in;
  std::deque<std::size_t> in_flight;  ///< request indices, send order
  bool dead = false;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Process CPU time not spent on the calling (generator) thread.
double server_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return process_cpu_seconds() - static_cast<double>(ts.tv_sec) -
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Per-request times of one wire pass, relative to the schedule start.
struct WireRun {
  std::vector<double> sent, done;
  std::uint64_t failed = 0;
  double t_start = 0;           ///< absolute steady-clock start
  std::vector<double> cpu_at;   ///< server CPU (process minus generator) at
                                ///< each step boundary
};

/// The open-loop generator: one thread, pacing each request to its due
/// time, two non-blocking connections. Schedule slot i sends trace
/// request offset + i; the call returns once every reply is in.
WireRun drive(const World& w, const Schedule& schedule, std::size_t offset,
              const std::vector<service::ReleaseStatus>& oracle,
              std::uint16_t port) {
  const std::size_t n = schedule.size();
  const std::size_t num_types = w.city.db.num_types();
  WireRun run;
  run.sent.assign(n, -1.0);
  run.done.assign(n, -1.0);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not 50 us late

  std::vector<Conn> conns(kConnections);
  for (Conn& c : conns) {
    c.fd = std::make_unique<Fd>(connect_loopback(port));
    c.dead = c.fd->get() < 0;
  }
  std::vector<std::uint8_t> body;
  std::vector<pollfd> fds(kConnections);
  std::size_t next = 0, boundary = 0;
  run.t_start = now_seconds() + 0.01;
  const double deadline =
      schedule.step_end_time(schedule.num_steps() - 1) + kDrainSeconds;

  const auto fail_conn = [&](Conn& c) {
    c.dead = true;
    c.in_flight.clear();  // done stays -1: counted as failed below
  };
  for (;;) {
    double t = now_seconds() - run.t_start;
    while (boundary <= schedule.num_steps() &&
           t >= schedule.step_start_time(boundary)) {
      run.cpu_at.push_back(server_cpu_seconds());
      ++boundary;
    }
    // Send everything that is due.
    for (; next < n && schedule.due(next) <= t; ++next) {
      const service::ReleaseRequest& request = w.trace[offset + next];
      Conn& c = conns[request.user_id % kConnections];
      if (c.dead) continue;
      net::encode_request(request, body);
      const auto len = static_cast<std::uint32_t>(body.size());
      for (int b = 0; b < 4; ++b) c.out.push_back(static_cast<std::uint8_t>(len >> (8 * b)));
      c.out.insert(c.out.end(), body.begin(), body.end());
      c.in_flight.push_back(next);
      run.sent[next] = t;
    }
    bool waiting = false;
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn& c = conns[i];
      while (!c.dead && c.out_pos < c.out.size()) {
        const ssize_t wrote = ::send(c.fd->get(), c.out.data() + c.out_pos,
                                     c.out.size() - c.out_pos, MSG_NOSIGNAL);
        if (wrote > 0) {
          c.out_pos += static_cast<std::size_t>(wrote);
        } else if (wrote < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          fail_conn(c);
        }
      }
      if (c.out_pos == c.out.size()) {
        c.out.clear();
        c.out_pos = 0;
      }
      waiting = waiting || (!c.dead && !c.in_flight.empty());
      fds[i] = {c.dead ? -1 : c.fd->get(),
                static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    }
    if ((next == n && !waiting) || t > deadline) break;

    // Sleep until the next request is due or a reply arrives. A
    // busy-polling generator was tried and made some whole runs several
    // times slower on a shared 4-vCPU VM.
    const double wait = next < n ? schedule.due(next) - t : 0.05;
    timespec timeout{};
    if (wait > 0) {
      timeout.tv_sec = static_cast<time_t>(wait);
      timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    }
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn& c = conns[i];
      if (c.dead || (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      std::uint8_t chunk[1 << 16];
      for (;;) {
        const ssize_t got = ::recv(c.fd->get(), chunk, sizeof chunk, 0);
        if (got > 0) {
          c.in.insert(c.in.end(), chunk, chunk + got);
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EINTR)) break;
        fail_conn(c);  // EOF or error with replies outstanding
        break;
      }
      t = now_seconds() - run.t_start;
      std::size_t pos = 0;
      while (!c.dead && c.in.size() - pos >= 4) {
        std::uint32_t len = 0;
        for (int b = 0; b < 4; ++b) len |= std::uint32_t{c.in[pos + b]} << (8 * b);
        if (len > net::kMaxFrameBytes || c.in_flight.empty()) {
          fail_conn(c);
          break;
        }
        if (c.in.size() - pos - 4 < len) break;
        const std::size_t id = c.in_flight.front();
        c.in_flight.pop_front();
        const auto reply = net::decode_response(
            std::span<const std::uint8_t>(c.in.data() + pos + 4, len));
        pos += 4 + len;
        const bool released = reply && (reply->status == service::ReleaseStatus::kGranted ||
                                        reply->status == service::ReleaseStatus::kDegraded);
        // A wrong reply keeps done < 0, so it counts as failed below.
        if (reply && reply->status == oracle[offset + id] &&
            (!released || reply->vector.size() == num_types)) {
          run.done[id] = t;
        }
      }
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }
  // Replies that never came (or came wrong) count as failed.
  for (std::size_t i = 0; i < n; ++i) run.failed += run.done[i] < 0.0 ? 1 : 0;
  while (run.cpu_at.size() <= schedule.num_steps()) {
    run.cpu_at.push_back(server_cpu_seconds());
  }
  return run;
}

/// The three steps' numbers pooled over every cycle of a pass.
struct PassNumbers {
  StepSummary steps[3];
  double cpu_s[2] = {0, 0};    ///< server CPU over the low and high steps
  double replies[3] = {0, 0, 0};  ///< replies inside each step's interval
  double over_seconds = 0;

  void add(const Schedule& schedule, const WireRun& run) {
    for (std::size_t s = 0; s < 3; ++s) {
      const StepSummary part = summarize_step(schedule, s, run.sent, run.done);
      StepSummary& into = steps[s];
      into.offered += part.offered;
      into.replied += part.replied;
      into.latency_ms.insert(into.latency_ms.end(), part.latency_ms.begin(),
                             part.latency_ms.end());
      into.lag_ms.insert(into.lag_ms.end(), part.lag_ms.begin(), part.lag_ms.end());
      into.in_flight_end = std::max(into.in_flight_end, part.in_flight_end);
      replies[s] += part.completed_per_s * schedule.step(s).seconds;
      if (s < 2) cpu_s[s] += run.cpu_at[s + 1] - run.cpu_at[s];
    }
    over_seconds += schedule.step(2).seconds;
  }
  double served_rps() const { return replies[2] / over_seconds; }
  double cpu_ms_per_request(std::size_t s) const {
    return cpu_s[s] * 1e3 / std::max(1.0, replies[s]);
  }
  /// The gated numbers: server CPU per reply at the low and high rates,
  /// and wall time per reply at overload. Wire latency is reported per
  /// layer instead: on a shared VM its median moved by up to 2x between
  /// runs of identical code, through vCPU wake-up delays.
  double stage(int which) const {
    if (which == 3) return 1e3 / served_rps();
    return cpu_ms_per_request(static_cast<std::size_t>(which - 1));
  }
};

/// One pass: `cycles` back-to-back schedules over consecutive slices of
/// the trace, each drained before the next starts.
PassNumbers run_pass(const World& w, const Schedule& schedule, std::size_t cycles,
                     const std::vector<service::ReleaseStatus>& oracle,
                     std::uint16_t port, std::uint64_t& failed, bool spans) {
  PassNumbers out;
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::size_t offset = c * schedule.size();
    const WireRun run = drive(w, schedule, offset, oracle, port);
    out.add(schedule, run);
    failed += run.failed;
    // Wire spans cover the sub-capacity steps only: in the over step a
    // request's time is mostly queueing behind the backlog.
    for (std::size_t i = 0; spans && i < schedule.step_end(1); ++i) {
      if (run.done[i] < 0) continue;
      tracer::record("net.request", run.t_start + schedule.due(i),
                     run.t_start + run.done[i], -1, offset + i);
    }
  }
  return out;
}

}  // namespace

Outcome run_serve(const Options& options, bool hot) {
  const Shape& shape = hot ? kHot : kCold;
  // The pass cycles through low, high and over several times, so a slow
  // stretch of the host lands on every step rather than on one.
  constexpr std::size_t kCycles = 3;
  const double step_s = options.seconds / (3.0 * kCycles);
  const std::vector<RateStep> steps = {{shape.rates[0], step_s},
                                       {shape.rates[1], step_s},
                                       {shape.rates[2], step_s}};
  const Schedule schedule(steps);
  const std::size_t n = schedule.size() * kCycles;

  Outcome out;
  out.params = {{"requests", std::to_string(n)},
                {"requests_per_user", std::to_string(shape.requests_per_user)},
                {"cache_capacity", std::to_string(shape.cache_capacity)},
                {"rate_low", std::to_string(steps[0].rate)},
                {"rate_high", std::to_string(steps[1].rate)},
                {"rate_over", std::to_string(steps[2].rate)},
                {"step_seconds", std::to_string(step_s)},
                {"cycles", std::to_string(kCycles)},
                {"connections", std::to_string(kConnections)},
                {"server_workers", std::to_string(kWorkers)}};

  std::unique_ptr<World> built;
  std::vector<double> setup;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    built.reset();
    const double t0 = now_seconds();
    built = build_world(shape, n, options.seed);
    setup.push_back(now_seconds() - t0);
  }
  World& world = *built;
  const service::ServiceConfig config = service_config(shape, options.seed);

  // The correctness oracle: the deterministic batch path on the same
  // trace (not part of setup_s). Its phase histograms are the per-layer
  // service.phase.* numbers.
  obs::Registry& reg = obs::global_registry();
  const char* kPhases[] = {"admission", "cloak", "cache_probe",
                           "compute", "cache_insert", "noise"};
  std::vector<double> phase_before;
  for (const char* p : kPhases) {
    phase_before.push_back(
        reg.histogram(std::string("service.phase.") + p + "_seconds").snapshot().sum);
  }
  std::vector<service::ReleaseStatus> oracle;
  {
    const ScopedSpan span("service.batch_oracle");
    service::ReleaseService batch(world.city.db, *world.cloaker, config);
    for (const service::ReleaseResult& r : batch.serve(world.trace)) {
      oracle.push_back(r.status);
    }
  }
  std::vector<double> phase_s;
  for (std::size_t i = 0; i < std::size(kPhases); ++i) {
    phase_s.push_back(
        reg.histogram(std::string("service.phase.") + kPhases[i] + "_seconds")
            .snapshot()
            .sum -
        phase_before[i]);
  }

  tracer::set_enabled(false);
  std::uint64_t failed = 0;
  const PassNumbers plain = run_pass(world, schedule, kCycles, oracle,
                                     world.serving->server.port(), failed, false);
  world.serving->server.stop();
  const service::ServiceStats stats = world.serving->service.concurrent_stats();
  const net::ServerStats server_stats = world.serving->server.stats();

  out.attempted = n;
  out.failed = failed;
  std::cout << "pass plain: offered " << n << ", failed " << failed
            << ", granted " << stats.granted << ", degraded " << stats.degraded
            << ", refused " << stats.budget_exhausted << ", cache hits "
            << stats.cache_hits << "/" << stats.cache_hits + stats.cache_misses
            << ", p50 ms " << median(plain.steps[0].latency_ms) << "/"
            << median(plain.steps[1].latency_ms)
            << ", served/s at overload " << plain.served_rps()
            << ", backlog at step ends " << plain.steps[0].in_flight_end << "/"
            << plain.steps[1].in_flight_end << "/" << plain.steps[2].in_flight_end
            << "\n";
  out.end_to_end = {
      {"setup_s", median(setup), "s"},
      {"stage1_ms", plain.stage(1), "ms"},
      {"stage2_ms", plain.stage(2), "ms"},
      {"stage3_ms", plain.stage(3), "ms"},
  };
  if (options.trace) {
    tracer::set_enabled(true);
    // Traced wire pass on a fresh service, every request a span.
    {
      Serving fresh(world.city.db, *world.cloaker, config);
      const PassNumbers traced = run_pass(world, schedule, kCycles, oracle,
                                          fresh.server.port(), out.failed, true);
      fresh.server.stop();
      out.attempted += n;
      out.per_layer.push_back({"trace.overhead.stage1", traced.stage(1) / plain.stage(1) - 1, "ratio"});
      out.per_layer.push_back({"trace.overhead.stage2", traced.stage(2) / plain.stage(2) - 1, "ratio"});
      out.per_layer.push_back({"trace.overhead.stage3", traced.stage(3) / plain.stage(3) - 1, "ratio"});
    }
    // serve_concurrent with no wire, same trace, two threads split by user.
    {
      service::ReleaseService direct(world.city.db, *world.cloaker, config);
      const std::size_t m = std::min<std::size_t>(n, 40000);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kConnections; ++t) {
        threads.emplace_back([&, t] {
          for (std::size_t i = 0; i < m; ++i) {
            if (world.trace[i].user_id % kConnections != t) continue;
            const ScopedSpan span("service.serve_concurrent", i);
            direct.serve_concurrent(world.trace[i]);
          }
        });
      }
      for (std::thread& th : threads) th.join();
    }
    // Probes of the per-request cloak and range-query calls.
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 4000); ++i) {
      const service::ReleaseRequest& r = world.trace[i];
      {
        const ScopedSpan span("cloak.cloak", i);
        world.cloaker->cloak(r.location, config.policies[r.policy].release.k);
      }
      const ScopedSpan span("poi.freq", i);
      world.city.db.freq(r.location, r.radius);
    }
    tracer::set_enabled(false);
  }
  out.correct = out.failed == 0;
  if (!options.trace) return out;

  const std::vector<SpanRecord> spans = tracer::collect();
  const double concurrent_us =
      median(tracer::durations(spans, "service.serve_concurrent")) * 1e6;
  std::vector<double> lag;
  for (const StepSummary& s : plain.steps) {
    lag.insert(lag.end(), s.lag_ms.begin(), s.lag_ms.end());
  }
  const Tail low = tail_percentile(plain.steps[0].latency_ms);
  const Tail high = tail_percentile(plain.steps[1].latency_ms);
  const double requests = static_cast<double>(std::max<std::uint64_t>(1, stats.requests));
  std::vector<Metric> m = {
      {"served_rps", plain.served_rps(), "1/s"},
      {"lat_p50_ms.low", median(plain.steps[0].latency_ms), "ms"},
      {"lat_p50_ms.high", median(plain.steps[1].latency_ms), "ms"},
      {"lat_p99_ms.low", low.value, "ms"},
      {"lat_p99_ms.high", high.value, "ms"},
      {"lat_tail_q.low", low.q, "ratio"},
      {"lat_tail_q.high", high.q, "ratio"},
      {"lat_samples.low", static_cast<double>(low.samples), "count"},
      {"lat_samples.high", static_cast<double>(high.samples), "count"},
      {"cpu_us_per_request", plain.cpu_ms_per_request(1) * 1e3, "us"},
      {"fail_share", static_cast<double>(out.failed) / static_cast<double>(out.attempted), "ratio"},
      {"poi.freq_us", median(tracer::durations(spans, "poi.freq")) * 1e6, "us"},
      {"cloak.cloak_us", median(tracer::durations(spans, "cloak.cloak")) * 1e6, "us"},
      {"service.serve_concurrent_us", concurrent_us, "us"},
      {"service.cache_hit_ratio", stats.cache_hit_rate(), "ratio"},
      {"service.refusal_share", static_cast<double>(stats.budget_exhausted) / requests, "ratio"},
      {"session_table.created",
       static_cast<double>(world.serving->service.session_stats().sessions_created), "count"},
      {"release_cache.evictions",
       static_cast<double>(world.serving->service.cache_stats().evictions()), "count"},
      {"net.overhead_us", median(plain.steps[0].latency_ms) * 1e3 - concurrent_us, "us"},
      {"net.frames_served", static_cast<double>(server_stats.frames_served), "count"},
      {"net.protocol_errors", static_cast<double>(server_stats.protocol_errors), "count"},
      {"gen.lag_ms.p99", quantile(lag, 0.99), "ms"},
      {"gen.lag_ms.max", quantile(lag, 1.0), "ms"},
      {"gen.in_flight_end.low", static_cast<double>(plain.steps[0].in_flight_end), "count"},
      {"gen.in_flight_end.high", static_cast<double>(plain.steps[1].in_flight_end), "count"},
      {"gen.in_flight_end.over", static_cast<double>(plain.steps[2].in_flight_end), "count"},
  };
  for (std::size_t i = 0; i < std::size(kPhases); ++i) {
    m.push_back({std::string("service.phase.") + kPhases[i] + "_s", phase_s[i], "s"});
  }
  out.per_layer.insert(out.per_layer.end(), m.begin(), m.end());
  return out;
}

}  // namespace perfbench
