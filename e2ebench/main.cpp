// End-to-end benchmark program.  One process runs one workload and prints,
// as its last stdout line, one JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit"}}}
//
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  Earlier lines are a host stamp ("# host {...}") and a
// human-readable report ("# ...").  See README.md for the workloads.
//
//   e2ebench --workload paper_pipeline --seed 1 --seconds 10 --trace 0
//            [--low-rate R --high-rate R --p99-limit-ms L] [--smoke]
//            [--scratch-dir DIR] [--source-id ID]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <unistd.h>

#include "bench.h"
#include "obs/obs.h"

namespace {

using e2ebench::Options;
using e2ebench::RunResult;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The clone GCC's target_clones resolver picks for the batched kernels
/// (circuit/batched.cpp: "default", "avx2", "avx512f"; highest first).
const char* isa_clone() {
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "default";
}

/// (steal, total) jiffies of the aggregate cpu line of /proc/stat.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(E2EBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

/// One-line host/build stamp; `valid` is false for builds whose timings
/// mean nothing (unoptimized, Debug, sanitizers) and for builds without
/// obs, whose traced run would read every span-derived layer as 0.
bool print_stamp(const Options& opt, const std::string& source_id) {
  const std::string build_type = E2EBENCH_BUILD_TYPE;
  const bool valid = optimized() && !sanitized() && build_type != "Debug" &&
                     gnsslna::obs::compiled_in();
  std::printf(
      "# host {\"nproc\":%ld,\"cpu_model\":\"%s\",\"isa_clone\":\"%s\","
      "\"build_type\":\"%s\",\"optimized\":%s,\"sanitizer\":%s,"
      "\"obs_compiled_in\":%s,\"obs_runtime_default\":%s,\"source\":\"%s\","
      "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"smoke\":%s,\"valid\":%s}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      isa_clone(), build_type.c_str(), optimized() ? "true" : "false",
      sanitized() ? "true" : "false",
      gnsslna::obs::compiled_in() ? "true" : "false",
      gnsslna::obs::enabled() ? "true" : "false",
      json_escape(source_id).c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
      opt.smoke ? "true" : "false", valid ? "true" : "false");
  return valid;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "paper_pipeline|scenario_design|evaluate_closed_loop|"
               "mixed_open_loop --seed N --seconds S --trace 0|1 "
               "[--low-rate R --high-rate R --p99-limit-ms L] [--smoke] "
               "[--scratch-dir DIR] [--source-id ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--low-rate") {
      opt.low_rate = std::atof(argv[++i]);
    } else if (a == "--high-rate") {
      opt.high_rate = std::atof(argv[++i]);
    } else if (a == "--p99-limit-ms") {
      opt.p99_limit_ms = std::atof(argv[++i]);
    } else if (a == "--scratch-dir") {
      opt.scratch_dir = argv[++i];
    } else if (a == "--source-id") {
      source_id = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");

  using Fn = RunResult (*)(const Options&);
  Fn fn = nullptr;
  if (opt.workload == "paper_pipeline") fn = e2ebench::run_paper_pipeline;
  if (opt.workload == "scenario_design") fn = e2ebench::run_scenario_design;
  if (opt.workload == "evaluate_closed_loop") {
    fn = e2ebench::run_evaluate_closed_loop;
  }
  if (opt.workload == "mixed_open_loop") {
    if (!(opt.low_rate > 0 && opt.high_rate > opt.low_rate &&
          opt.p99_limit_ms > 0)) {
      return usage("mixed_open_loop needs --low-rate < --high-rate and "
                   "--p99-limit-ms");
    }
    fn = e2ebench::run_mixed_open_loop;
  }
  if (fn == nullptr) return usage("unknown workload");

  if (!print_stamp(opt, source_id)) {
    std::fprintf(stderr, "e2ebench: unoptimized, sanitizer or obs-less "
                         "build; refusing to report timings\n");
    return 3;
  }

  const auto steal0 = cpu_steal_jiffies();
  RunResult r;
  try {
    r = fn(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : r.report) std::printf("# %s\n", line.c_str());
  if (opt.trace) {
    const double accounted = r.values["accounted_fraction"];
    std::printf("# accounted_fraction=%.4f%s\n", accounted,
                accounted < 0.9 ? " FLAGGED: the named layers explain < 90%"
                                : "");
  }
  // Time the hypervisor gave this VM's vCPUs to others while they wanted
  // to run: high values mean the host, not the program, set the timings.
  const auto steal1 = cpu_steal_jiffies();
  std::printf("# host_steal_pct=%.2f\n",
              100.0 * (steal1.first - steal0.first) /
                  std::max(steal1.second - steal0.second, 1.0));
  std::printf("# digest %s\n", r.digest.c_str());
  std::printf("# peak_rss_mb=%.2f MiB\n", e2ebench::peak_rss_mb());
  std::printf("# failed_ratio=%.6f (%llu of %llu)\n",
              r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  const auto& table = opt.trace ? e2ebench::kPerLayer : e2ebench::kEndToEnd;
  // Values the workload measured outside the table (mixed_open_loop's own
  // layers) go to the report only.
  for (const auto& [name, v] : r.values) {
    const bool listed = std::any_of(
        table.begin(), table.end(),
        [&](const e2ebench::MetricSpec& m) { return name == m.name; });
    if (!listed) std::printf("# %s=%.9g\n", name.c_str(), v);
  }
  std::string metrics;
  for (const e2ebench::MetricSpec& m : table) {
    const auto it = r.values.find(m.name);
    const double v = it == r.values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name, v, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
