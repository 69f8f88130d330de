// Shared machinery of the perfbench harness: run options, the metric
// report, summary statistics, the open-loop rate schedule and its
// post-hoc step summaries, and the in-memory span tracer.
//
// Everything here lives in the benchmark's own files. The library under
// test is only ever called through its public API; spans are recorded
// around those calls, never inside src/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- options

/// Every workload attacks or serves the same synthetic Beijing: its cost
/// (candidate counts, support vectors, cloak depths) depends strongly on
/// the city, so --seed varies the users, locations and traces on it, not
/// the city itself. Set-up is repeated and its median reported.
inline constexpr std::uint64_t kCitySeed = 42;
inline constexpr std::size_t kSetupRepeats = 9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< measured time of one pass
  bool trace = false;         ///< per-layer (traced) run
  std::size_t threads = 4;    ///< library thread pool size (<= nproc)
  bool tiny = false;          ///< test-sized attack_offline (tests only)
  std::string out_dir = ".";  ///< where the traced run writes its spans
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the correctness verdict,
/// the operation counts, both metric sets and the workload parameters
/// for the run-context block.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> params;
  std::string digest;  ///< output digest (attack_offline only)
};

Outcome run_attack_offline(const Options& options);
Outcome run_serve(const Options& options, bool hot);

// ------------------------------------------------------------- statistics

double median(std::vector<double> xs);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double q = 0.0;             ///< the percentile actually reported
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;     ///< samples strictly above the rank of q
};
/// The highest of {0.99, 0.95, 0.9, 0.75, 0.5} (not above `wanted`) that
/// has at least ten samples beyond it. With fewer than twenty samples no
/// percentile qualifies and the median is reported with its count.
Tail tail_percentile(std::vector<double> xs, double wanted = 0.99);

double process_cpu_seconds();
double peak_rss_mb();
double now_seconds();  ///< steady clock, seconds

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ULL);
std::string hex64(std::uint64_t v);

// ------------------------------------------------------- open-loop pacing

struct RateStep {
  double rate = 0.0;     ///< offered requests per second
  double seconds = 0.0;  ///< step length
};

/// A constant-rate-per-step open-loop schedule: step s offers
/// floor(rate * seconds) requests, evenly spaced, and starts when the
/// previous step's interval ends. Request i is due at due(i) seconds
/// after the schedule's start, whatever happened to earlier requests.
class Schedule {
 public:
  explicit Schedule(std::vector<RateStep> steps);
  std::size_t size() const noexcept { return due_.size(); }
  double due(std::size_t i) const noexcept { return due_[i]; }
  std::size_t num_steps() const noexcept { return steps_.size(); }
  const RateStep& step(std::size_t s) const noexcept { return steps_[s]; }
  std::size_t step_begin(std::size_t s) const noexcept { return begin_[s]; }
  std::size_t step_end(std::size_t s) const noexcept { return begin_[s + 1]; }
  double step_start_time(std::size_t s) const noexcept { return start_[s]; }
  double step_end_time(std::size_t s) const noexcept { return start_[s + 1]; }

 private:
  std::vector<RateStep> steps_;
  std::vector<double> due_;
  std::vector<std::size_t> begin_;  ///< num_steps + 1 request offsets
  std::vector<double> start_;       ///< num_steps + 1 step boundaries
};

/// One step's numbers, computed after the run from per-request times
/// (all in seconds relative to the schedule start; done < 0 = no reply).
struct StepSummary {
  std::size_t offered = 0;
  std::size_t replied = 0;
  std::vector<double> latency_ms;  ///< done - due, replied requests
  std::vector<double> lag_ms;      ///< sent - due
  double completed_per_s = 0.0;    ///< replies inside the step interval
  std::size_t in_flight_end = 0;   ///< due by the step end, not yet replied
};
StepSummary summarize_step(const Schedule& schedule, std::size_t step,
                           const std::vector<double>& sent,
                           const std::vector<double>& done);

// ------------------------------------------------------------------ spans

struct SpanRecord {
  const char* name = "";      ///< a string literal, "<layer>.<what>"
  std::uint32_t thread = 0;   ///< tracer-assigned thread index
  std::int64_t parent = -1;   ///< span id, -1 for a root
  std::uint64_t request = 0;  ///< request / item id, 0 when none
  double start = 0.0;         ///< steady-clock seconds
  double end = 0.0;
};

/// In-memory span recorder. Disabled (the default), a ScopedSpan costs
/// one branch. Enabled, each span is appended to its thread's buffer; the
/// buffers are only read by collect() once the traced work has joined.
namespace tracer {
void set_enabled(bool on);
bool enabled();
/// Drops every recorded span (between an untraced and a traced pass).
void clear();
/// Appends a span that was timed elsewhere (e.g. a wire request).
std::int64_t record(const char* name, double start, double end,
                    std::int64_t parent, std::uint64_t request);
/// All spans, with ids rewritten to indices into the returned vector.
std::vector<SpanRecord> collect();
/// Writes `spans` as CSV (id,name,thread,parent,request,start_s,end_s).
bool write_csv(const std::vector<SpanRecord>& spans, const std::string& path);
/// Per-layer self time: span duration minus the part covered by child
/// spans on the same thread, summed by layer (the name up to the dot).
/// Spans named "bench.*" are the harness's own phase markers, not a
/// layer: they are left out.
std::vector<std::pair<std::string, double>> self_time_by_layer(
    const std::vector<SpanRecord>& spans);
/// Share of a phase's thread time spent inside layer spans. The phase is
/// every span named `phase`; its thread time is its wall time times the
/// number of threads that ran a layer span (any span not named "bench.*")
/// inside it, so a pool thread idling at the tail of a parallel loop
/// counts as uncovered. Layer spans are clipped to the phase and merged
/// per thread, so nested spans count once. 0 when no such phase exists.
double phase_coverage(const std::vector<SpanRecord>& spans,
                      const char* phase);
/// Durations (seconds) of every span named `name`.
std::vector<double> durations(const std::vector<SpanRecord>& spans,
                              const char* name);
}  // namespace tracer

/// The parent default is the innermost open span of the calling thread;
/// pass an explicit parent for work fanned out to pool threads.
class ScopedSpan {
 public:
  static constexpr std::int64_t kInheritParent = -2;
  explicit ScopedSpan(const char* name, std::uint64_t request = 0,
                      std::int64_t parent = kInheritParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// This span's id (-1 when tracing is off).
  std::int64_t id() const noexcept { return id_; }

 private:
  std::int64_t id_ = -1;
};

}  // namespace perfbench
