// perfbench: the end-to-end tuning benchmark's driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (serve_net, serve_inproc, sim_fig10, sim_explore) and
// prints a human-readable table, one `provenance` JSON line and, last, the
// result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when a correctness gate or the closure check fails.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <thread>

#include "common.h"

namespace protuner::perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the names and units).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"rounds_per_s", "1/s"},
    {"round_us_p50", "us"},
    {"session_ms_p50", "ms"},
    {"ntt", "sim_s"},           {"best_clean_s", "sim_s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.fetch_rtt_us_p50", "us"},      {"net.fetch_rtt_us_p99", "us"},
    {"net.report_rtt_us_p50", "us"},     {"net.fetch_wire_us_p50", "us"},
    {"net.report_wire_us_p50", "us"},    {"net.barrier_us_p50", "us"},
    {"net.bytes_per_round", "B"},        {"net.decode_errors", "count"},
    {"harmony.fetch_ns_p50", "ns"},      {"harmony.fetch_ns_p99", "ns"},
    {"harmony.report_ns_p50", "ns"},     {"harmony.barrier_us_p50", "us"},
    {"harmony.close_us_p50", "us"},      {"harmony.server_fetch_ns_p50", "ns"},
    {"harmony.server_report_ns_p50", "ns"},
    {"core.open_round_ns_p50", "ns"},    {"core.close_round_ns_p50", "ns"},
    {"core.converge_round_p50", "count"},
    {"cluster.run_step_ns_p50", "ns"},   {"cluster.replay_share", "ratio"},
    {"gs2.lookups_per_round", "count"},  {"gs2.exact_share", "ratio"},
    {"gs2.memo_share", "ratio"},         {"gs2.kdtree_share", "ratio"},
    {"gs2.lookup_ns_p50", "ns"},         {"varmodel.observe_ns_p50", "ns"},
    {"exp.scaling_efficiency", "ratio"}, {"obs.scrape_ms_p50", "ms"},
    {"obs.push_us_p50", "us"},           {"obs.series", "count"},
    {"bench.unaccounted_share", "ratio"},
    {"bench.trace_overhead_share", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_net|serve_inproc|sim_fig10|sim_explore --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// JSON string escaping for the few characters provenance values can hold.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace
}  // namespace protuner::perfbench

int main(int argc, char** argv) {
  using namespace protuner::perfbench;
  // A wedged session must not outlive the run's time limit.
  ::alarm(170);
  const Args a = parse(argc, argv);
  Result r;
  try {
    if (a.workload == "serve_net") r = run_serve_net(a);
    else if (a.workload == "serve_inproc") r = run_serve_inproc(a);
    else if (a.workload == "sim_fig10") r = run_sim_fig10(a);
    else if (a.workload == "sim_explore") r = run_sim_explore(a);
    else usage(("unknown workload " + a.workload).c_str());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }

  auto& p = r.provenance;
  p["workload"] = a.workload;
  p["seed"] = std::to_string(a.seed);
  p["seconds"] = std::to_string(a.seconds);
  p["trace"] = a.trace ? "1" : "0";
  p["nproc"] = std::to_string(std::thread::hardware_concurrency());
  p["cpu_model"] = cpu_model();
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["compiler"] = "g++ " __VERSION__;
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  p["commit"] = commit ? commit : "unknown";

  std::printf("%-32s %16s  %s\n", "metric", "value", "unit");
  std::string metrics;
  for (const MetricDef& d : a.trace ? std::span<const MetricDef>(kPerLayer)
                                    : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end() && !a.trace) {
      std::fprintf(stderr, "perfbench: %s did not report %s\n",
                   a.workload.c_str(), d.name);
      return 1;
    }
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    std::printf("%-32s %16.6g  %s\n", d.name, v, d.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, v, d.unit);
    metrics += buf;
  }
  for (const std::string& f : r.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::string prov;
  for (const auto& [k, v] : p) {
    prov += (prov.empty() ? "" : ", ") + quoted(k) + ": " + quoted(v);
  }
  std::printf("provenance: {%s}\n", prov.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return r.correct ? 0 : 1;
}
