// Shared pieces of the end-to-end benchmark program: options, the result
// record every workload returns, the fixed per-layer metric table, timing
// and percentile helpers, and the span-capture reader (layers.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        ///< tiny sizes: a wiring check, not a measurement
  double low_rate = 0.0;     ///< mixed_open_loop rate steps [jobs/s]
  double high_rate = 0.0;
  double p99_limit_ms = 0.0; ///< latency limit of the max-rate search
  std::string scratch_dir = ".";  ///< where span-capture files go
};

/// What one workload run produced.  `values` holds every metric the
/// workload measured, keyed by the names in kEndToEnd / kPerLayer; names
/// the workload does not exercise are absent and print as 0.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> report;  ///< human-readable lines
  std::string digest;               ///< hash of the checked outputs

  void fail(const std::string& why) {
    ++failed;
    report.push_back("CHECK FAILED: " + why);
  }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0 (every workload defines all of them).
inline const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
};

/// Printed with --trace 1; a layer the workload does not reach reads 0.
/// Every name here is reached by a workload listed in BENCHMARK.json.
inline const std::vector<MetricSpec> kPerLayer = {
    {"extract.three_step_s", "s"},
    {"extract.evaluations", "count"},
    {"optimize.self_s", "s"},
    {"amplifier.band_evals", "count"},
    {"amplifier.band_eval_us", "us"},
    {"amplifier.report_cache.hit_ratio", "fraction"},
    {"yield.sample_us", "us"},
    {"yield.failed_evals", "count"},
    {"circuit.batch.solves", "count"},
    {"circuit.batch.solve_us", "us"},
    {"lab.measure_design_s", "s"},
    {"mission.analyze_scenario_s", "s"},
    {"mission.objective_evals", "count"},
    {"mission.eval_us", "us"},
    {"mission.solves_per_eval", "count"},
    {"protocol.frame_us", "us"},
    {"json.parse_us", "us"},
    {"session.intake_us", "us"},
    {"scheduler.queue_wait_us", "us"},
    {"plan_cache.acquire_us", "us"},
    {"jobs.run_us", "us"},
    {"session.serialize_us", "us"},
    {"service.unaccounted_us", "us"},
    {"scheduler.queue_wait_p99_ms", "ms"},
    {"scheduler.rejected_ratio", "fraction"},
    {"plan_cache.hit_ratio", "fraction"},
    {"plan_cache.misses", "count"},
    {"accounted_fraction", "fraction"},
    {"obs.trace_overhead_ratio", "ratio"},
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Process peak resident set [MiB].
double peak_rss_mb();

/// FNV-1a over raw bytes; the digest of checked outputs.
class Digest {
 public:
  void add(const void* data, std::size_t n);
  void add(double x) { add(&x, sizeof x); }
  void add(const std::vector<double>& v) {
    for (const double x : v) add(x);
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Self and inclusive time per span name, from the obs span capture.
struct SpanTotals {
  std::uint64_t count = 0;
  double incl_ns = 0.0;
  double self_ns = 0.0;  ///< duration minus the part its child spans cover
};
using SpanTable = std::map<std::string, SpanTotals>;

/// Writes the running span capture to `scratch_dir`, folds it into
/// `table` (per-thread nesting gives each span's self time), deletes the
/// file and clears the capture.  Returns false when the file could not be
/// written or read.
bool drain_span_capture(const std::string& scratch_dir, SpanTable* table);

// Workloads (workloads.cpp).
RunResult run_paper_pipeline(const Options& opt);
RunResult run_scenario_design(const Options& opt);
RunResult run_evaluate_closed_loop(const Options& opt);
RunResult run_mixed_open_loop(const Options& opt);

}  // namespace e2ebench
