// perfbench: runs one benchmark workload against the library's public API
// and prints, as the last line of stdout, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (untraced run) or every per-layer
// metric (--trace 1). Earlier stdout lines carry the run-context block,
// the output digest and, when traced, each layer's self time.
//
//   perfbench --workload attack_offline|serve_hot|serve_cold --seed N
//             --seconds S --trace 0|1 [--threads T] [--out-dir DIR]
//             [--commit SHA]
//
// Exit codes: 0 ok; 1 an output check failed; 2 bad arguments;
// 3 not a Release build (timings from other builds are not results).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "harness.h"
#include "poi/kernel_tiers.h"

namespace {

using perfbench::Metric;

/// The metric sets BENCHMARK.json declares, in its order. A workload
/// reports the ones its layers exercise; the rest read 0 (per-layer) —
/// every end-to-end metric is measured by every workload.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},     {"stage1_ms", "ms"},   {"stage2_ms", "ms"},
    {"stage3_ms", "ms"},  {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"train_s", "s"},
    {"eval_locations_per_s", "1/s"},
    {"linkage_users_per_s", "1/s"},
    {"served_rps", "1/s"},
    {"lat_p50_ms.low", "ms"},
    {"lat_p50_ms.high", "ms"},
    {"lat_p99_ms.low", "ms"},
    {"lat_p99_ms.high", "ms"},
    {"lat_tail_q.low", "ratio"},
    {"lat_tail_q.high", "ratio"},
    {"lat_samples.low", "count"},
    {"lat_samples.high", "count"},
    {"cpu_us_per_request", "us"},
    {"fail_share", "ratio"},
    {"ml.recovery_train_s", "s"},
    {"ml.models", "count"},
    {"ml.recover_us", "us"},
    {"attack.reid_infer_us", "us"},
    {"attack.candidates_per_infer", "count"},
    {"attack.unique_share", "ratio"},
    {"poi.anchor_cache_hit_ratio", "ratio"},
    {"poi.freq_us", "us"},
    {"cloak.cloak_us", "us"},
    {"defense.sanitize_us", "us"},
    {"defense.dp_release_us", "us"},
    {"attack.linkage_observe_us", "us"},
    {"traj.fill_s", "s"},
    {"parallel.task_seconds", "s"},
    {"parallel.queue_depth", "count"},
    {"service.serve_concurrent_us", "us"},
    {"service.phase.admission_s", "s"},
    {"service.phase.cloak_s", "s"},
    {"service.phase.cache_probe_s", "s"},
    {"service.phase.compute_s", "s"},
    {"service.phase.cache_insert_s", "s"},
    {"service.phase.noise_s", "s"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.refusal_share", "ratio"},
    {"session_table.created", "count"},
    {"release_cache.evictions", "count"},
    {"net.overhead_us", "us"},
    {"net.frames_served", "count"},
    {"net.protocol_errors", "count"},
    {"gen.lag_ms.p99", "ms"},
    {"gen.lag_ms.max", "ms"},
    {"gen.in_flight_end.low", "count"},
    {"gen.in_flight_end.high", "count"},
    {"gen.in_flight_end.over", "count"},
    {"trace.overhead.stage1", "ratio"},
    {"trace.overhead.stage2", "ratio"},
    {"trace.overhead.stage3", "ratio"},
    {"trace.coverage.phase1", "ratio"},
    {"trace.coverage.phase2", "ratio"},
    {"trace.coverage.phase3", "ratio"},
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Orders `got` as `declared`, filling absent per-layer entries with 0.
/// A name outside the declaration is a harness bug and aborts the run.
std::vector<Metric> complete(
    const std::vector<std::pair<const char*, const char*>>& declared,
    const std::vector<Metric>& got, bool fill_missing) {
  std::vector<Metric> out;
  for (const Metric& m : got) {
    bool known = false;
    for (const auto& [name, unit] : declared) {
      known = known || (m.name == name && m.unit == unit);
    }
    if (!known) throw std::logic_error("undeclared metric " + m.name);
    if (!std::isfinite(m.value)) throw std::logic_error("non-finite " + m.name);
  }
  for (const auto& [name, unit] : declared) {
    bool found = false;
    for (const Metric& m : got) {
      if (m.name == name) {
        out.push_back(m);
        found = true;
        break;
      }
    }
    if (!found && !fill_missing) {
      throw std::logic_error(std::string("missing metric ") + name);
    }
    if (!found) out.push_back({name, 0.0, unit});
  }
  return out;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload attack_offline|serve_hot|"
               "serve_cold --seed N --seconds S --trace 0|1 [--threads T] "
               "[--out-dir DIR] [--commit SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  options.threads = std::min<std::size_t>(4, nproc);
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--threads") {
        options.threads = std::stoul(value);
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad flag value");
  }
  if (options.workload != "attack_offline" && options.workload != "serve_hot" &&
      options.workload != "serve_cold") {
    return usage("unknown or missing --workload");
  }
  if (options.threads == 0 || options.threads > nproc) {
    return usage("--threads must be in [1, nproc]");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to report from a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  poiprivacy::common::set_default_thread_count(options.threads);

  const perfbench::Outcome outcome =
      options.workload == "attack_offline"
          ? perfbench::run_attack_offline(options)
          : perfbench::run_serve(options, options.workload == "serve_hot");

  std::ostringstream ctx;
  ctx << "{\"context\": {\"workload\": " << quoted(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << number(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"nproc\": " << nproc << ", \"threads\": " << options.threads
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"kernel_tier\": "
      << quoted(std::string(poiprivacy::poi::kernel_tier_name(
             poiprivacy::poi::active_kernel_tier())))
      << ", \"commit\": " << quoted(options.commit) << ", \"params\": {";
  for (std::size_t i = 0; i < outcome.params.size(); ++i) {
    ctx << (i ? ", " : "") << quoted(outcome.params[i].first) << ": "
        << quoted(outcome.params[i].second);
  }
  ctx << "}}}";
  std::cout << ctx.str() << "\n";

  std::vector<Metric> metrics;
  if (options.trace) {
    const std::vector<perfbench::SpanRecord> spans = perfbench::tracer::collect();
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".csv";
    if (!perfbench::tracer::write_csv(spans, path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
    std::cout << "spans " << spans.size() << " written to " << path << "\n";
    for (const auto& [layer, seconds] : perfbench::tracer::self_time_by_layer(spans)) {
      std::cout << "self_time_s " << layer << " " << number(seconds) << "\n";
    }
    metrics = complete(kPerLayer, outcome.per_layer, true);
  } else {
    std::vector<Metric> e2e = outcome.end_to_end;
    e2e.push_back({"peak_rss_mb", perfbench::peak_rss_mb(), "MB"});
    metrics = complete(kEndToEnd, e2e, false);
  }

  std::ostringstream result;
  result << "{\"correct\": " << (outcome.correct ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result << (i ? ", " : "") << quoted(metrics[i].name) << ": {\"value\": "
           << number(metrics[i].value) << ", \"unit\": "
           << quoted(metrics[i].unit) << "}";
  }
  result << "}}";
  if (!outcome.correct) {
    std::cerr << "perfbench: output check failed (" << outcome.failed << " of "
              << outcome.attempted << ")\n";
    return 1;
  }
  std::cout << result.str() << std::endl;
  return 0;
}
