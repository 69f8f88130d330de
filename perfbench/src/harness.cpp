#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

namespace perfbench {

// ------------------------------------------------------------- statistics

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

Tail tail_percentile(std::vector<double> xs, double wanted) {
  std::sort(xs.begin(), xs.end());
  Tail tail;
  tail.samples = xs.size();
  if (xs.empty()) return tail;
  const double n = static_cast<double>(xs.size());
  for (const double q : {0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (q > wanted + 1e-12) continue;
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(q * n)), 1, xs.size());
    tail.q = q;
    tail.value = xs[rank - 1];
    tail.beyond = xs.size() - rank;
    if (tail.beyond >= 10) return tail;
  }
  return tail;  // the median, short of ten samples beyond it
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------- open-loop pacing

Schedule::Schedule(std::vector<RateStep> steps) : steps_(std::move(steps)) {
  begin_.push_back(0);
  start_.push_back(0.0);
  for (const RateStep& step : steps_) {
    const auto count =
        static_cast<std::size_t>(std::floor(step.rate * step.seconds));
    for (std::size_t i = 0; i < count; ++i) {
      due_.push_back(start_.back() + static_cast<double>(i) / step.rate);
    }
    begin_.push_back(due_.size());
    start_.push_back(start_.back() + step.seconds);
  }
}

StepSummary summarize_step(const Schedule& schedule, std::size_t step,
                           const std::vector<double>& sent,
                           const std::vector<double>& done) {
  StepSummary out;
  const double t0 = schedule.step_start_time(step);
  const double t1 = schedule.step_end_time(step);
  for (std::size_t i = schedule.step_begin(step); i < schedule.step_end(step);
       ++i) {
    ++out.offered;
    if (sent[i] >= 0.0) out.lag_ms.push_back((sent[i] - schedule.due(i)) * 1e3);
    if (done[i] >= 0.0) {
      ++out.replied;
      out.latency_ms.push_back((done[i] - schedule.due(i)) * 1e3);
    }
  }
  std::size_t completed = 0;
  for (std::size_t i = 0; i < schedule.step_end(step); ++i) {
    if (done[i] >= t0 && done[i] < t1) ++completed;
    if (schedule.due(i) < t1 && (done[i] < 0.0 || done[i] >= t1)) {
      ++out.in_flight_end;
    }
  }
  out.completed_per_s = static_cast<double>(completed) / (t1 - t0);
  return out;
}

// ------------------------------------------------------------------ spans

namespace {

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> open;  ///< ids of this thread's open spans
};

struct TracerState {
  std::mutex mu;  // guards buffers (registration, clear, collect)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<bool> enabled{false};
};

TracerState& state() {
  static TracerState* s = new TracerState;  // outlives exiting threads
  return *s;
}

thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    TracerState& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    auto owned = std::make_unique<ThreadBuffer>();
    owned->index = static_cast<std::uint32_t>(s.buffers.size());
    t_buffer = owned.get();
    s.buffers.push_back(std::move(owned));
  }
  return *t_buffer;
}

bool is_phase_marker(const SpanRecord& r) {
  return std::string_view(r.name).starts_with("bench.");
}

std::int64_t encode_id(std::uint32_t thread, std::size_t local) {
  return (static_cast<std::int64_t>(thread) << 32) |
         static_cast<std::int64_t>(local);
}

}  // namespace

namespace tracer {

// Toggled only between passes, while no traced work runs.
void set_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}
bool enabled() { return state().enabled.load(std::memory_order_relaxed); }

void clear() {
  TracerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (auto& b : s.buffers) {
    b->spans.clear();
    b->open.clear();
  }
}

std::int64_t record(const char* name, double start, double end,
                    std::int64_t parent, std::uint64_t request) {
  if (!enabled()) return -1;
  ThreadBuffer& b = buffer();
  b.spans.push_back({name, b.index, parent, request, start, end});
  return encode_id(b.index, b.spans.size() - 1);
}

std::vector<SpanRecord> collect() {
  TracerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::vector<std::size_t> offset(s.buffers.size() + 1, 0);
  for (std::size_t i = 0; i < s.buffers.size(); ++i) {
    offset[i + 1] = offset[i] + s.buffers[i]->spans.size();
  }
  std::vector<SpanRecord> out;
  out.reserve(offset.back());
  for (const auto& b : s.buffers) {
    for (SpanRecord r : b->spans) {
      if (r.parent >= 0) {
        const auto thread = static_cast<std::size_t>(r.parent >> 32);
        r.parent = static_cast<std::int64_t>(offset[thread] +
                                             (r.parent & 0xffffffffLL));
      }
      out.push_back(r);
    }
  }
  return out;
}

bool write_csv(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "id,name,thread,parent,request,start_s,end_s\n";
  char line[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    std::snprintf(line, sizeof line, "%zu,%s,%u,%lld,%llu,%.9f,%.9f\n", i,
                  r.name, r.thread, static_cast<long long>(r.parent),
                  static_cast<unsigned long long>(r.request), r.start, r.end);
    out << line;
  }
  return static_cast<bool>(out);
}

std::vector<std::pair<std::string, double>> self_time_by_layer(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const SpanRecord& r : spans) {
    if (r.parent < 0) continue;
    const auto p = static_cast<std::size_t>(r.parent);
    if (spans[p].thread == r.thread) covered[p] += r.end - r.start;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (is_phase_marker(spans[i])) continue;
    const std::string name = spans[i].name;
    const double duration = spans[i].end - spans[i].start;
    by_layer[name.substr(0, name.find('.'))] +=
        std::max(0.0, duration - std::min(covered[i], duration));
  }
  return {by_layer.begin(), by_layer.end()};
}

double phase_coverage(const std::vector<SpanRecord>& spans,
                      const char* phase) {
  const std::string wanted = phase;
  double covered = 0.0, thread_time = 0.0;
  for (const SpanRecord& p : spans) {
    if (wanted != p.name) continue;
    std::map<std::uint32_t, std::vector<std::pair<double, double>>> by_thread;
    for (const SpanRecord& r : spans) {
      if (is_phase_marker(r)) continue;
      const double start = std::max(r.start, p.start);
      const double end = std::min(r.end, p.end);
      if (start < end) by_thread[r.thread].emplace_back(start, end);
    }
    for (auto& [thread, intervals] : by_thread) {
      std::sort(intervals.begin(), intervals.end());
      double reach = p.start;
      for (const auto& [start, end] : intervals) {
        covered += std::max(0.0, end - std::max(start, reach));
        reach = std::max(reach, end);
      }
    }
    thread_time += (p.end - p.start) * static_cast<double>(by_thread.size());
  }
  return thread_time > 0.0 ? covered / thread_time : 0.0;
}

std::vector<double> durations(const std::vector<SpanRecord>& spans,
                              const char* name) {
  std::vector<double> out;
  const std::string wanted = name;
  for (const SpanRecord& r : spans) {
    if (wanted == r.name) out.push_back(r.end - r.start);
  }
  return out;
}

}  // namespace tracer

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request,
                       std::int64_t parent) {
  if (!tracer::enabled()) return;
  ThreadBuffer& b = buffer();
  if (parent == kInheritParent) parent = b.open.empty() ? -1 : b.open.back();
  b.spans.push_back({name, b.index, parent, request, now_seconds(), 0.0});
  id_ = encode_id(b.index, b.spans.size() - 1);
  b.open.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  ThreadBuffer& b = *t_buffer;
  b.spans[static_cast<std::size_t>(id_ & 0xffffffffLL)].end = now_seconds();
  b.open.pop_back();
}

}  // namespace perfbench
