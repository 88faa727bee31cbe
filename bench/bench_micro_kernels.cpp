// Micro-benchmarks (google-benchmark) of the kernels every experiment
// leans on: the analytic FET S-parameter evaluation, the MNA assembly +
// LU solve of the full LNA netlist, the spot noise analysis, one
// optimizer objective evaluation, and the full band-evaluation kernel in
// two shapes, evaluated through the batched plan: one design parameter
// moves per point (BM_BandEvaluation) and all twelve move per point
// (BM_BandEvaluationFullStep, the per-candidate cost).  These bound the
// cost model used to budget the optimization runs.
//
// Extra modes on top of the usual google-benchmark flags:
//   --json <path>   also write {name, iterations, ns/op, bytes/op} records
//                   in the bench_util JSON format (BENCH_kernels.json is a
//                   committed snapshot of this output);
//   --perf-smoke <baseline.json>
//                   skip google-benchmark entirely: time the band-
//                   evaluation kernel directly and exit non-zero when it
//                   is more than 25% slower than the committed baseline.
//                   Setting GNSSLNA_SKIP_PERF_SMOKE skips the check (for
//                   sanitizer builds, loaded CI hosts, foreign machines).
#define GNSSLNA_BENCH_COUNT_ALLOCS
#include "bench_util.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <ctime>

#include "amplifier/lna.h"
#include "amplifier/objectives.h"
#include "amplifier/yield.h"
#include "circuit/analysis.h"
#include "circuit/batched.h"
#include "device/phemt.h"
#include "obs/obs.h"

namespace {

using namespace gnsslna;

bench::JsonRecorder g_json;

/// Wraps the hot loop: runs `fn` under the benchmark state, counts heap
/// bytes across the whole run, and files one JSON record.
template <typename Fn>
void run_counted(benchmark::State& state, const char* name, Fn&& fn) {
  const std::uint64_t bytes0 = bench::alloc_bytes();
  const std::uint64_t count0 = bench::alloc_count();
  const bench::Stopwatch sw;
  for (auto _ : state) {
    fn();
  }
  const double elapsed_ns = sw.seconds() * 1e9;
  const std::uint64_t bytes = bench::alloc_bytes() - bytes0;
  const std::uint64_t allocs = bench::alloc_count() - count0;
  const double iters =
      state.iterations() > 0 ? static_cast<double>(state.iterations()) : 1.0;
  const double per_op = static_cast<double>(bytes) / iters;
  const double allocs_per_op = static_cast<double>(allocs) / iters;
  state.counters["bytes_per_op"] = per_op;
  state.counters["allocs_per_op"] = allocs_per_op;
  if (g_json.enabled()) {
    // google-benchmark calls each bench several times (calibration +
    // measurement); add() replaces by name, keeping the last (longest) run.
    g_json.add(name, static_cast<std::uint64_t>(state.iterations()),
               elapsed_ns / iters, per_op, allocs_per_op);
  }
}

void BM_FetSParams(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  const device::Bias bias{-0.3, 2.0};
  double f = 1.1e9;
  run_counted(state, "BM_FetSParams", [&] {
    benchmark::DoNotOptimize(dev.s_params(bias, f));
    f = f < 1.7e9 ? f + 1e6 : 1.1e9;
  });
}
BENCHMARK(BM_FetSParams);

void BM_LnaNetlistSParams(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  const amplifier::LnaDesign lna(dev, config, amplifier::DesignVector{});
  const circuit::Netlist nl = lna.build_netlist();
  run_counted(state, "BM_LnaNetlistSParams", [&] {
    benchmark::DoNotOptimize(circuit::s_params(nl, 1.575e9));
  });
}
BENCHMARK(BM_LnaNetlistSParams);

void BM_LnaNoiseAnalysis(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  const amplifier::LnaDesign lna(dev, config, amplifier::DesignVector{});
  const circuit::Netlist nl = lna.build_netlist();
  run_counted(state, "BM_LnaNoiseAnalysis", [&] {
    benchmark::DoNotOptimize(circuit::noise_analysis(nl, 0, 1, 1.575e9));
  });
}
BENCHMARK(BM_LnaNoiseAnalysis);

void BM_DesignObjectiveEvaluation(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  const optimize::GoalProblem problem =
      amplifier::make_goal_problem(dev, config, amplifier::DesignGoals{});
  std::vector<double> x = amplifier::DesignVector{}.to_vector();
  run_counted(state, "BM_DesignObjectiveEvaluation", [&] {
    benchmark::DoNotOptimize(problem.objectives(x));
    x[2] += 1e-5;  // defeat the report cache
    if (x[2] > 0.039) x[2] = 0.001;
  });
}
BENCHMARK(BM_DesignObjectiveEvaluation);

/// Advances one microstrip length within its bounds: the optimizer-realistic
/// "next design point" step both band-evaluation benches share.
void step_design(amplifier::DesignVector& d) {
  d.l_in_m += 1e-5;
  if (d.l_in_m > 0.039) d.l_in_m = 0.001;
}

void BM_BandEvaluation(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  amplifier::BandEvaluator evaluator(dev, config);
  amplifier::DesignVector d;
  // Warm up outside the counted loop: the cold build (netlist closures,
  // plan tabulation, workspace arena) is the ONE place the batched path
  // may allocate, and the first stepped evaluation lazily registers the
  // re-tabulation path's obs counters; allocs_per_op then pins the
  // steady state at exactly 0.
  (void)evaluator.evaluate(d);
  step_design(d);
  (void)evaluator.evaluate(d);
  step_design(d);
  run_counted(state, "BM_BandEvaluation", [&] {
    benchmark::DoNotOptimize(evaluator.evaluate(d));
    step_design(d);
  });
}
BENCHMARK(BM_BandEvaluation);

/// Moves all 12 DesignVector fields on every call, the way optimizer
/// candidates, yield trials and service jobs do: field i follows a
/// triangle wave of its own period (so consecutive steps always differ)
/// around the default design, inside DesignVector::bounds() and within a
/// bias box the default device can always reach.
void step_all_fields(amplifier::DesignVector& d, std::uint64_t& step) {
  const amplifier::DesignVector nominal;
  ++step;
  const auto tri = [&](std::uint64_t period) {  // in [-1, 1]
    const double x = static_cast<double>(step % (2 * period));
    return std::abs(x - static_cast<double>(period)) /
               static_cast<double>(period) * 2.0 -
           1.0;
  };
  d.vgs = nominal.vgs + 0.05 * tri(5);
  d.vds = nominal.vds + 0.3 * tri(7);
  d.l_in_m = nominal.l_in_m * (1.0 + 0.25 * tri(11));
  d.l_in2_m = nominal.l_in2_m * (1.0 + 0.25 * tri(13));
  d.l_shunt_h = nominal.l_shunt_h * (1.0 + 0.2 * tri(17));
  d.c_mid_f = nominal.c_mid_f * (1.0 + 0.2 * tri(19));
  d.l_out_m = nominal.l_out_m * (1.0 + 0.25 * tri(23));
  d.c_out_sh_f = nominal.c_out_sh_f * (1.0 + 0.2 * tri(29));
  d.l_out2_m = nominal.l_out2_m * (1.0 + 0.25 * tri(31));
  d.l_sdeg_h = nominal.l_sdeg_h * (1.0 + 0.2 * tri(37));
  d.c_in_f = nominal.c_in_f * (1.0 + 0.2 * tri(41));
  d.r_fb_ohm = nominal.r_fb_ohm * (1.0 + 0.2 * tri(43));
}

/// The per-candidate cost of a band evaluation: every op re-stamps every
/// design-bound table (bias + FET, five passives, feedback resistor, four
/// lines) before the factor, solves and noise.  Informational, not gated.
void BM_BandEvaluationFullStep(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  amplifier::BandEvaluator evaluator(dev, config);
  amplifier::DesignVector d;
  std::uint64_t step = 0;
  // Warm up as in BM_BandEvaluation, so allocs_per_op pins 0.
  (void)evaluator.evaluate(d);
  step_all_fields(d, step);
  (void)evaluator.evaluate(d);
  step_all_fields(d, step);
  run_counted(state, "BM_BandEvaluationFullStep", [&] {
    benchmark::DoNotOptimize(evaluator.evaluate(d));
    step_all_fields(d, step);
  });
}
BENCHMARK(BM_BandEvaluationFullStep);

/// The raw batched kernel: assemble + blocked LU + all three solves over
/// the full 16-lane grid, no retabulation and no figure extraction.  The
/// perf gate uses it as a second normalization reference alongside the
/// FET kernel.
void BM_BatchedSolve(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::LnaDesign lna(dev, config, amplifier::DesignVector{});
  const circuit::Netlist nl = lna.build_netlist();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu_grid = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu_grid.begin(), mu_grid.end());
  circuit::BatchedPlan plan(nl, std::move(grid));
  circuit::EvalWorkspace ws;
  plan.factor(ws, 0, plan.size());  // warm up: commits the arena
  run_counted(state, "BM_BatchedSolve", [&] {
    plan.mark_values_dirty();  // forces re-factorization of every lane
    plan.factor(ws, 0, plan.size());
    plan.solve_ports(ws);
    plan.solve_output_transfer(ws, 1);
    benchmark::DoNotOptimize(ws);
  });
}
BENCHMARK(BM_BatchedSolve);

/// One yield trial through the persistent engine: a pseudo-random draw,
/// a full re-stamp of every tolerance-perturbed table (including the
/// substrate-dependent bias line and tee), and one batched evaluate.
/// This is the per-sample cost of a production Monte-Carlo run; the perf
/// gate pins its ratio to BM_BandEvaluation.
void BM_YieldSampleMc(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::DesignVector nominal;
  amplifier::YieldTrialEvaluator evaluator(dev, config, nominal);
  const amplifier::DesignGoals goals;
  const numeric::Rng root(12345);
  std::uint64_t trial = 0;
  // Warm up as in BM_BandEvaluation: cold build + one trial for the
  // lazily registered obs counters.
  (void)evaluator.evaluate(
      amplifier::pseudo_trial_draw(root, trial++, nominal, config.substrate,
                                   {}),
      goals);
  (void)evaluator.evaluate(
      amplifier::pseudo_trial_draw(root, trial++, nominal, config.substrate,
                                   {}),
      goals);
  run_counted(state, "BM_YieldSampleMc", [&] {
    const amplifier::TrialDraw draw = amplifier::pseudo_trial_draw(
        root, trial++, nominal, config.substrate, {});
    benchmark::DoNotOptimize(evaluator.evaluate(draw, goals));
  });
}
BENCHMARK(BM_YieldSampleMc);

/// The pre-engine yield path for comparison: full LnaDesign rebuild per
/// trial (what run_yield falls back to for an infeasible nominal design).  The
/// BM_YieldSampleMc / BM_YieldSampleRebuild ratio is the engine's speedup.
void BM_YieldSampleRebuild(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::DesignVector nominal;
  const amplifier::DesignGoals goals;
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  const numeric::Rng root(12345);
  std::uint64_t trial = 0;
  run_counted(state, "BM_YieldSampleRebuild", [&] {
    const amplifier::TrialDraw draw = amplifier::pseudo_trial_draw(
        root, trial++, nominal, config.substrate, {});
    amplifier::AmplifierConfig cfg = config;
    cfg.substrate = draw.substrate;
    benchmark::DoNotOptimize(
        amplifier::LnaDesign(dev, cfg, draw.design).evaluate(band));
  });
}
BENCHMARK(BM_YieldSampleRebuild);

/// Thread CPU time [s]: immune to descheduling on loaded hosts (the gate
/// below also normalizes away frequency scaling via a reference kernel).
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/// Times the band-evaluation kernel directly (no google-benchmark): the
/// same BandEvaluator workload as BM_BandEvaluation, min-of-3 batches.
/// Also reports the steady-state heap allocations per op (post-warm-up;
/// exactly 0 on the batched path) through `allocs_per_op` when non-null.
double time_band_evaluation_ns(double* allocs_per_op = nullptr) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  amplifier::BandEvaluator evaluator(dev, config);
  amplifier::DesignVector d;
  evaluator.evaluate(d);  // warm up: builds netlist + plan
  // One stepped warm-up evaluation: the first pass through the
  // re-tabulation path lazily registers its obs counters
  // (function-local statics), a one-time allocation that is not part of
  // the steady-state zero-alloc contract being measured.
  step_design(d);
  (void)evaluator.evaluate(d);
  double best = 1e300;
  std::uint64_t allocs = 0, total_iters = 0;
  for (int batch = 0; batch < 3; ++batch) {
    const int iters = 400;
    const std::uint64_t count0 = bench::alloc_count();
    const double t0 = thread_cpu_seconds();
    for (int i = 0; i < iters; ++i) {
      step_design(d);
      (void)evaluator.evaluate(d);
    }
    best = std::min(best, (thread_cpu_seconds() - t0) * 1e9 / iters);
    allocs += bench::alloc_count() - count0;
    total_iters += iters;
  }
  if (allocs_per_op != nullptr) {
    *allocs_per_op =
        static_cast<double>(allocs) / static_cast<double>(total_iters);
  }
  return best;
}

/// Times the raw batched assemble+factor+solve kernel (the BM_BatchedSolve
/// workload): the perf gate's second normalization reference.
double time_batched_solve_ns() {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::LnaDesign lna(dev, config, amplifier::DesignVector{});
  const circuit::Netlist nl = lna.build_netlist();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu_grid = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu_grid.begin(), mu_grid.end());
  circuit::BatchedPlan plan(nl, std::move(grid));
  circuit::EvalWorkspace ws;
  plan.factor(ws, 0, plan.size());  // warm up: commits the arena
  double best = 1e300;
  for (int batch = 0; batch < 3; ++batch) {
    const int iters = 1000;
    const double t0 = thread_cpu_seconds();
    for (int i = 0; i < iters; ++i) {
      plan.mark_values_dirty();
      plan.factor(ws, 0, plan.size());
      plan.solve_ports(ws);
      plan.solve_output_transfer(ws, 1);
    }
    best = std::min(best, (thread_cpu_seconds() - t0) * 1e9 / iters);
  }
  return best;
}

/// Times one steady-state yield-engine trial (the BM_YieldSampleMc
/// workload): pseudo draw + full re-stamp + batched evaluate.  Also
/// reports steady-state allocations per trial (exactly 0 by contract).
double time_yield_sample_ns(double* allocs_per_op = nullptr) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::DesignVector nominal;
  amplifier::YieldTrialEvaluator evaluator(dev, config, nominal);
  const amplifier::DesignGoals goals;
  const numeric::Rng root(12345);
  std::uint64_t trial = 0;
  (void)evaluator.evaluate(
      amplifier::pseudo_trial_draw(root, trial++, nominal, config.substrate,
                                   {}),
      goals);
  (void)evaluator.evaluate(
      amplifier::pseudo_trial_draw(root, trial++, nominal, config.substrate,
                                   {}),
      goals);
  double best = 1e300;
  std::uint64_t allocs = 0, total_iters = 0;
  for (int batch = 0; batch < 3; ++batch) {
    const int iters = 300;
    const std::uint64_t count0 = bench::alloc_count();
    const double t0 = thread_cpu_seconds();
    for (int i = 0; i < iters; ++i) {
      const amplifier::TrialDraw draw = amplifier::pseudo_trial_draw(
          root, trial++, nominal, config.substrate, {});
      (void)evaluator.evaluate(draw, goals);
    }
    best = std::min(best, (thread_cpu_seconds() - t0) * 1e9 / iters);
    allocs += bench::alloc_count() - count0;
    total_iters += iters;
  }
  if (allocs_per_op != nullptr) {
    *allocs_per_op =
        static_cast<double>(allocs) / static_cast<double>(total_iters);
  }
  return best;
}

/// The host-speed reference: the analytic FET S-parameter kernel, which
/// the batched plan does not touch.  Its ratio to the band evaluation
/// cancels uniform host slowdown (frequency scaling, shared CPU).
double time_fet_reference_ns() {
  const device::Phemt dev = device::Phemt::reference_device();
  const device::Bias bias{-0.3, 2.0};
  double f = 1.1e9;
  rf::SParams sink{};
  double best = 1e300;
  for (int batch = 0; batch < 3; ++batch) {
    const int iters = 100000;
    const double t0 = thread_cpu_seconds();
    for (int i = 0; i < iters; ++i) {
      sink = dev.s_params(bias, f);
      f = f < 1.7e9 ? f + 1e6 : 1.1e9;
    }
    best = std::min(best, (thread_cpu_seconds() - t0) * 1e9 / iters);
  }
  // Defeat dead-code elimination of the timing loop.
  if (sink.frequency_hz < 0.0) std::printf("impossible\n");
  return best;
}

/// On a perf_smoke failure: re-run a short instrumented batch of the band
/// kernel and print the per-stage evaluation-path counters, so the report
/// says WHICH stage regressed (LU churn? stamp re-tabulation? cache
/// misses?) instead of just "slower".  Runs after the timing pass so the
/// telemetry cannot perturb the measurement.
void print_band_counter_deltas() {
  if (!obs::compiled_in()) {
    std::fprintf(stderr,
                 "[perf_smoke] (telemetry compiled out; rebuild with "
                 "-DGNSSLNA_OBS=ON for per-stage counters)\n");
    return;
  }
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  amplifier::BandEvaluator evaluator(dev, config);
  amplifier::DesignVector d;
  evaluator.evaluate(d);  // warm up: builds netlist + plan
  const std::vector<obs::CounterValue> before = obs::counter_snapshot();
  constexpr int kIters = 8;
  for (int i = 0; i < kIters; ++i) {
    step_design(d);
    (void)evaluator.evaluate(d);
  }
  const std::vector<obs::CounterValue> after = obs::counter_snapshot();
  obs::set_enabled(was_enabled);
  std::fprintf(stderr,
               "[perf_smoke] evaluation-path counters over %d instrumented "
               "band evaluations:\n",
               kIters);
  for (const obs::CounterValue& c : obs::counter_delta(after, before)) {
    if (c.value == 0) continue;
    std::fprintf(stderr, "  %-40s %8llu  (%.1f per evaluation)\n",
                 c.name.c_str(), static_cast<unsigned long long>(c.value),
                 static_cast<double>(c.value) / kIters);
  }
}

int perf_smoke(const std::string& baseline_path) {
  if (std::getenv("GNSSLNA_SKIP_PERF_SMOKE") != nullptr) {
    std::printf("[perf_smoke] skipped (GNSSLNA_SKIP_PERF_SMOKE set)\n");
    return 0;
  }
  const auto entries = bench::load_bench_json(baseline_path);
  const double baseline_ns =
      bench::bench_json_ns(entries, "BM_BandEvaluation");
  const double baseline_ref_ns =
      bench::bench_json_ns(entries, "BM_FetSParams");
  if (baseline_ns <= 0.0 || baseline_ref_ns <= 0.0) {
    std::fprintf(stderr,
                 "[perf_smoke] missing BM_BandEvaluation/BM_FetSParams "
                 "entries in %s\n",
                 baseline_path.c_str());
    return 1;
  }
  const double baseline_allocs = bench::bench_json_ns(
      bench::load_bench_json_field(baseline_path, "allocs_per_op"),
      "BM_BandEvaluation");
  double now_allocs = -1.0;
  const double now_ns = time_band_evaluation_ns(&now_allocs);
  const double ref_ns = time_fet_reference_ns();
  const double batched_ns = time_batched_solve_ns();
  const double limit_ns = 1.25 * baseline_ns;
  // Normalized checks: compare the band kernel against two in-process
  // references — the analytic FET kernel (untouched by the evaluation
  // plan) and the raw batched solve (the core the band path rides on) —
  // so a uniformly slower (or faster) host cancels out; only a regression
  // of the band kernel itself moves both ratios.
  const double ratio = now_ns / ref_ns;
  const double ratio_limit = 1.25 * baseline_ns / baseline_ref_ns;
  const double baseline_batched_ns =
      bench::bench_json_ns(entries, "BM_BatchedSolve");
  const double batched_ratio = now_ns / batched_ns;
  const double batched_ratio_limit =
      baseline_batched_ns > 0.0 ? 1.25 * baseline_ns / baseline_batched_ns
                                : 1e300;
  std::printf("[perf_smoke] band evaluation: %.0f ns/op (baseline %.0f, "
              "limit %.0f); vs FET reference kernel: %.0fx (limit %.0fx); "
              "vs batched-solve kernel: %.1fx (limit %.1fx)\n",
              now_ns, baseline_ns, limit_ns, ratio, ratio_limit,
              batched_ratio, batched_ratio_limit);
  const bool time_regressed =
      now_ns > limit_ns && ratio > ratio_limit &&
      batched_ratio > batched_ratio_limit;
  // Yield-engine per-sample gate: the cost of one yield trial is pinned
  // as a RATIO to the band-evaluation kernel measured in the same
  // process, so host speed cancels exactly; the baseline ratio comes from
  // the committed BM_YieldSampleMc / BM_BandEvaluation entries.  Skipped
  // (with a note) against baselines that predate the yield engine.
  bool yield_regressed = false;
  const double baseline_yield_ns =
      bench::bench_json_ns(entries, "BM_YieldSampleMc");
  if (baseline_yield_ns > 0.0) {
    double yield_allocs = -1.0;
    const double yield_ns = time_yield_sample_ns(&yield_allocs);
    const double yield_ratio = yield_ns / now_ns;
    const double yield_ratio_limit = 1.25 * baseline_yield_ns / baseline_ns;
    const double baseline_yield_allocs = bench::bench_json_ns(
        bench::load_bench_json_field(baseline_path, "allocs_per_op"),
        "BM_YieldSampleMc");
    std::printf("[perf_smoke] yield sample: %.0f ns/op; vs band evaluation: "
                "%.2fx (limit %.2fx); steady-state allocs/op %.3f "
                "(baseline %.3f)\n",
                yield_ns, yield_ratio, yield_ratio_limit, yield_allocs,
                baseline_yield_allocs);
    yield_regressed = yield_ratio > yield_ratio_limit ||
                      (baseline_yield_allocs >= 0.0 &&
                       yield_allocs > baseline_yield_allocs);
    if (yield_regressed) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: yield-engine per-sample cost "
                   "regressed vs the band-evaluation kernel (or its "
                   "steady-state allocations grew)\n");
    }
  } else {
    std::printf(
        "[perf_smoke] (no BM_YieldSampleMc baseline; yield gate skipped)\n");
  }
  // Steady-state allocation regression: the batched path promises exactly
  // zero; any nonzero count against a zero baseline is a hard failure
  // regardless of timing noise.
  const bool allocs_regressed =
      baseline_allocs >= 0.0 && now_allocs > baseline_allocs;
  if (time_regressed || allocs_regressed || yield_regressed) {
    if (time_regressed) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: band-evaluation kernel regressed "
                   ">25%% vs committed baseline (absolute AND both "
                   "host-normalized references)\n");
    }
    if (allocs_regressed) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: steady-state heap allocations "
                   "regressed: %.3f allocs/op vs baseline %.3f\n",
                   now_allocs, baseline_allocs);
    }
    std::fprintf(stderr,
                 "[perf_smoke] allocs_per_op: now %.3f, baseline %.3f\n",
                 now_allocs, baseline_allocs);
    print_band_counter_deltas();
    return 1;
  }
  std::printf("[perf_smoke] OK (steady-state allocs/op: %.3f)\n", now_allocs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull out our own flags before google-benchmark sees the command line.
  std::vector<char*> args;
  std::string json_path, smoke_baseline;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perf-smoke") == 0) {
      smoke = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') smoke_baseline = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (smoke) {
    return perf_smoke(smoke_baseline.empty() ? "BENCH_kernels.json"
                                             : smoke_baseline);
  }
  g_json = bench::JsonRecorder(json_path);
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  if (g_json.enabled()) g_json.write();
  return 0;
}
