// The deterministic-parallelism contract: thread count changes wall-clock
// time, never answers.  ThreadPool unit tests plus bit-identity checks of
// every fan-out hot path (DE, PSO, NSGA-II, SA restarts, Monte-Carlo yield,
// corner analysis, frequency sweeps) across 1/2/4/8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "amplifier/corners.h"
#include "amplifier/objectives.h"
#include "amplifier/yield.h"
#include "mission/objective.h"
#include "numeric/thread_slots.h"
#include "optimize/goal_attainment.h"
#include "numeric/parallel.h"
#include "numeric/rng.h"
#include "obs/obs.h"
#include "optimize/differential_evolution.h"
#include "optimize/nsga2.h"
#include "optimize/particle_swarm.h"
#include "optimize/simulated_annealing.h"
#include "rf/sweep.h"

namespace gnsslna {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests.

TEST(ThreadPool, EmptyRangeRunsNothing) {
  numeric::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  numeric::ThreadPool pool(4);
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  numeric::ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::size_t sum = 0;  // serial by construction, no atomics needed
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
  numeric::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          if (i == 137) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PoolIsReusableAfterAnException) {
  numeric::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   64, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> calls{0};
  pool.parallel_for(64, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  numeric::ThreadPool pool(3);
  for (int job = 0; job < 50; ++job) {
    std::atomic<int> calls{0};
    pool.parallel_for(97, [&](std::size_t) { ++calls; });
    ASSERT_EQ(calls.load(), 97) << "job " << job;
  }
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock) {
  constexpr std::size_t outer = 16, inner = 32;
  std::vector<std::atomic<int>> hits(outer * inner);
  numeric::parallel_for(4, outer, [&](std::size_t i) {
    // A nested use of the shared pool must degrade to a serial loop on the
    // worker rather than block on the already-busy pool.
    numeric::parallel_for(4, inner,
                          [&](std::size_t j) { ++hits[i * inner + j]; });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
  }
}

TEST(ThreadPool, MaxThreadsCapsConcurrency) {
  numeric::ThreadPool pool(8);
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  pool.parallel_for(
      256,
      [&](std::size_t) {
        const int now = ++active;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        for (volatile int spin = 0; spin < 1000; ++spin) {
        }
        --active;
      },
      2);
  EXPECT_LE(peak.load(), 2);
}

TEST(ParallelHelpers, ResolveThreadsFollowsTheConvention) {
  EXPECT_EQ(numeric::resolve_threads(0), numeric::hardware_threads());
  EXPECT_EQ(numeric::resolve_threads(1), 1u);
  EXPECT_EQ(numeric::resolve_threads(7), 7u);
  EXPECT_GE(numeric::hardware_threads(), 1u);
}

TEST(ParallelHelpers, ParallelMapReturnsValuesInIndexOrder) {
  const std::vector<double> out = numeric::parallel_map(
      4, 1000, [](std::size_t i) { return std::sqrt(double(i)); });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], std::sqrt(double(i)));
  }
}

// ---------------------------------------------------------------------------
// Counter-based RNG streams.

TEST(RngSplit, IsAPureFunctionOfStateAndIndex) {
  numeric::Rng rng(42);
  rng.next_u64();
  numeric::Rng a = rng.split(7);
  numeric::Rng b = rng.split(7);
  for (int k = 0; k < 16; ++k) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngSplit, DoesNotAdvanceTheParent) {
  numeric::Rng rng(42);
  numeric::Rng copy = rng;
  (void)rng.split(0);
  (void)rng.split(123456);
  for (int k = 0; k < 16; ++k) ASSERT_EQ(rng.next_u64(), copy.next_u64());
}

TEST(RngSplit, StreamsAreDistinct) {
  numeric::Rng rng(42);
  numeric::Rng a = rng.split(0);
  numeric::Rng b = rng.split(1);
  // Equality of the first draw would be a 2^-64 coincidence.
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ---------------------------------------------------------------------------
// Per-thread memo slots: one slot per calling thread, owned by (and freed
// with) the object that holds them.

/// Counts live instances so a test can see slots being destroyed.
struct CountedSlot {
  static inline std::atomic<int> live{0};
  int value = 0;
  CountedSlot() { ++live; }
  ~CountedSlot() { --live; }
};

TEST(ThreadSlots, OneSlotPerThreadFreedWithTheOwner) {
  ASSERT_EQ(CountedSlot::live.load(), 0);
  {
    numeric::ThreadSlots<CountedSlot> a, b;
    a.local().value = 1;
    b.local().value = 2;
    // Alternating owners on one thread resolves each to its own slot.
    EXPECT_EQ(a.local().value, 1);
    EXPECT_EQ(b.local().value, 2);
    EXPECT_EQ(&a.local(), &a.local());
    std::thread other([&] {
      EXPECT_EQ(a.local().value, 0);  // a fresh slot, not the caller's
      a.local().value = 3;
    });
    other.join();
    EXPECT_EQ(a.local().value, 1);
    EXPECT_EQ(CountedSlot::live.load(), 3);  // a: 2 threads, b: 1
  }
  EXPECT_EQ(CountedSlot::live.load(), 0);
  // A new owner never sees a destroyed owner's slot.
  numeric::ThreadSlots<CountedSlot> c;
  EXPECT_EQ(c.local().value, 0);
}

/// Bytes currently held by malloc (glibc accounting; sanitizer runtimes
/// replace malloc, and then this reads as a constant).
std::size_t heap_in_use() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

TEST(ThreadSlots, ShortLivedObjectivesLeaveNoMemoBehind) {
  // Every objective keeps a persistent evaluator per calling thread.  A
  // process-lifetime thread (a service worker) that evaluates and drops
  // many short-lived objectives must get that memory back: resident heap
  // stays flat instead of growing by one evaluator per objective.
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;
  const std::vector<double> x = amplifier::DesignVector{}.to_vector();
  const auto band_problem = [&] {
    const optimize::GoalProblem p =
        amplifier::make_nf_gain_problem(dev, config, amplifier::DesignGoals{});
    (void)p.objectives(x);
  };
  const mission::Scenario& scenario = *mission::find_scenario("urban_canyon");
  const auto scenario_objective = [&] {
    const mission::ScenarioObjective o(dev, config, scenario);
    (void)o.objectives()(x);
  };

  for (int i = 0; i < 10; ++i) {  // warm-up: lazily built statics
    band_problem();
    scenario_objective();
  }
  const std::size_t before = heap_in_use();
  for (int i = 0; i < 200; ++i) band_problem();
  for (int i = 0; i < 50; ++i) scenario_objective();
  const std::size_t after = heap_in_use();
  // One leaked band evaluator is ~125 KB and one scenario slot ~400 KB,
  // so a leak would grow the heap by ~45 MB here.
  EXPECT_LT(after, before + (4u << 20))
      << "heap grew by " << (after - before) << " bytes";
}

// ---------------------------------------------------------------------------
// Determinism of the optimizer fan-outs: identical seed => bit-identical
// result for every thread count.

double rosenbrock(const std::vector<double>& x) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = x[i + 1] - x[i] * x[i];
    const double b = 1.0 - x[i];
    s += 100.0 * a * a + b * b;
  }
  return s;
}

optimize::Bounds box3() {
  return optimize::Bounds({-2.0, -2.0, -2.0}, {2.0, 2.0, 2.0});
}

void expect_identical(const optimize::Result& a, const optimize::Result& b,
                      std::size_t threads) {
  EXPECT_EQ(a.value, b.value) << threads << " threads";
  EXPECT_EQ(a.evaluations, b.evaluations) << threads << " threads";
  EXPECT_EQ(a.iterations, b.iterations) << threads << " threads";
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << threads << " threads, coordinate " << i;
  }
}

class ThreadCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadCountSweep, DifferentialEvolutionIsBitIdentical) {
  optimize::DifferentialEvolutionOptions opt;
  opt.max_generations = 40;
  numeric::Rng serial_rng(7);
  const optimize::Result serial =
      differential_evolution(rosenbrock, box3(), serial_rng, opt);

  opt.threads = GetParam();
  numeric::Rng rng(7);
  const optimize::Result r =
      differential_evolution(rosenbrock, box3(), rng, opt);
  expect_identical(serial, r, opt.threads);
}

TEST_P(ThreadCountSweep, ParticleSwarmIsBitIdentical) {
  optimize::ParticleSwarmOptions opt;
  opt.max_iterations = 40;
  numeric::Rng serial_rng(8);
  const optimize::Result serial =
      particle_swarm(rosenbrock, box3(), serial_rng, opt);

  opt.threads = GetParam();
  numeric::Rng rng(8);
  const optimize::Result r = particle_swarm(rosenbrock, box3(), rng, opt);
  expect_identical(serial, r, opt.threads);
}

TEST_P(ThreadCountSweep, AnnealingRestartsAreBitIdentical) {
  optimize::SimulatedAnnealingOptions opt;
  opt.max_evaluations = 4000;
  opt.restarts = 4;
  numeric::Rng serial_rng(9);
  const optimize::Result serial =
      simulated_annealing(rosenbrock, box3(), serial_rng, opt);

  opt.threads = GetParam();
  numeric::Rng rng(9);
  const optimize::Result r =
      simulated_annealing(rosenbrock, box3(), rng, opt);
  expect_identical(serial, r, opt.threads);
}

TEST_P(ThreadCountSweep, Nsga2IsBitIdentical) {
  // ZDT1 on 4 variables.
  const optimize::VectorObjectiveFn zdt1 =
      [](const std::vector<double>& x) -> std::vector<double> {
    double g = 1.0;
    for (std::size_t i = 1; i < x.size(); ++i) {
      g += 9.0 * x[i] / double(x.size() - 1);
    }
    const double f1 = x[0];
    return {f1, g * (1.0 - std::sqrt(f1 / g))};
  };
  const optimize::Bounds bounds(std::vector<double>(4, 0.0),
                                std::vector<double>(4, 1.0));
  optimize::Nsga2Options opt;
  opt.population = 24;
  opt.generations = 20;

  numeric::Rng serial_rng(10);
  const optimize::Nsga2Result serial =
      nsga2(zdt1, 2, bounds, {}, serial_rng, opt);

  opt.threads = GetParam();
  numeric::Rng rng(10);
  const optimize::Nsga2Result r = nsga2(zdt1, 2, bounds, {}, rng, opt);

  EXPECT_EQ(serial.evaluations, r.evaluations);
  ASSERT_EQ(serial.front.size(), r.front.size());
  for (std::size_t i = 0; i < serial.front.size(); ++i) {
    ASSERT_EQ(serial.front[i].x, r.front[i].x) << "individual " << i;
    ASSERT_EQ(serial.front[i].f, r.front[i].f) << "individual " << i;
  }
}

TEST_P(ThreadCountSweep, SweepMapIsBitIdentical) {
  const std::vector<double> grid = rf::linear_grid(1.0e9, 2.0e9, 33);
  const auto fn = [](double f) {
    return std::sin(f * 1e-9) * std::log(f) + std::cos(f * 3e-10);
  };
  const std::vector<double> serial = rf::sweep_map(grid, fn, 1);
  const std::vector<double> par = rf::sweep_map(grid, fn, GetParam());
  ASSERT_EQ(serial, par);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountSweep,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{8}));

// ---------------------------------------------------------------------------
// Determinism of the amplifier-level fan-outs (full netlist evaluations, so
// sample counts are kept small).

TEST(ParallelAmplifier, MonteCarloYieldIsBitIdenticalAcrossThreadCounts) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  amplifier::DesignGoals goals;
  goals.nf_goal_db = 10.0;
  goals.gain_goal_db = 0.0;
  goals.s11_goal_db = 0.0;
  goals.s22_goal_db = 0.0;
  goals.mu_margin = 0.0;

  numeric::Rng serial_rng(88);
  const amplifier::YieldReport serial = amplifier::monte_carlo_yield(
      dev, config, amplifier::DesignVector{}, goals, 6, serial_rng, {}, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    numeric::Rng rng(88);
    const amplifier::YieldReport rep = amplifier::monte_carlo_yield(
        dev, config, amplifier::DesignVector{}, goals, 6, rng, {}, threads);
    EXPECT_EQ(serial.samples, rep.samples) << threads << " threads";
    EXPECT_EQ(serial.passes, rep.passes) << threads << " threads";
    EXPECT_EQ(serial.pass_rate, rep.pass_rate) << threads << " threads";
    EXPECT_EQ(serial.nf_avg_p95_db, rep.nf_avg_p95_db) << threads;
    EXPECT_EQ(serial.gt_min_p5_db, rep.gt_min_p5_db) << threads;
    EXPECT_EQ(serial.nf_avg_mean_db, rep.nf_avg_mean_db) << threads;
    EXPECT_EQ(serial.gt_min_mean_db, rep.gt_min_mean_db) << threads;
  }
}

TEST(ParallelAmplifier, CornerAnalysisIsBitIdenticalAcrossThreadCounts) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::DesignGoals goals;
  const std::vector<amplifier::Corner> corners =
      amplifier::standard_corners();

  const std::vector<amplifier::CornerRow> serial = amplifier::corner_analysis(
      dev, config, amplifier::DesignVector{}, goals, corners, 1);
  const std::vector<amplifier::CornerRow> par = amplifier::corner_analysis(
      dev, config, amplifier::DesignVector{}, goals, corners, 4);

  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].corner.name, par[i].corner.name);
    EXPECT_EQ(serial[i].meets_goals, par[i].meets_goals);
    EXPECT_EQ(serial[i].report.nf_avg_db, par[i].report.nf_avg_db);
    EXPECT_EQ(serial[i].report.gt_min_db, par[i].report.gt_min_db);
    EXPECT_EQ(serial[i].report.s11_worst_db, par[i].report.s11_worst_db);
    EXPECT_EQ(serial[i].report.mu_min, par[i].report.mu_min);
    EXPECT_EQ(serial[i].report.id_a, par[i].report.id_a);
  }
}

// The objective/constraint closures of a goal problem share one report
// cache and are fanned out concurrently by the optimizers — regression
// test for the memo-slot race that made pareto_sweep thread-count
// dependent.
TEST(ParallelAmplifier, NfGainProblemEvaluationIsBitIdenticalAcrossThreads) {
  const device::Phemt dev = device::Phemt::reference_device();
  const optimize::GoalProblem problem = amplifier::make_nf_gain_problem(
      dev, amplifier::AmplifierConfig{}, amplifier::DesignGoals{});

  numeric::Rng rng(2024);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 12; ++i) points.push_back(problem.bounds.sample(rng));

  auto evaluate_all = [&](std::size_t threads) {
    return numeric::parallel_map(threads, points.size(), [&](std::size_t i) {
      std::vector<double> row = problem.objectives(points[i]);
      for (const auto& constraint : problem.constraints) {
        row.push_back(constraint(points[i]));
      }
      return row;
    });
  };

  const std::vector<std::vector<double>> serial = evaluate_all(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(serial, evaluate_all(threads)) << threads << " threads";
  }
}

TEST(ParallelAmplifier, BandEvaluationIsBitIdenticalAcrossThreadCounts) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  const amplifier::LnaDesign lna(dev, config, amplifier::DesignVector{});
  const std::vector<double> band = amplifier::LnaDesign::default_band();

  const amplifier::BandReport serial = lna.evaluate(band, 1);
  const amplifier::BandReport par = lna.evaluate(band, 4);
  EXPECT_EQ(serial.nf_avg_db, par.nf_avg_db);
  EXPECT_EQ(serial.nf_max_db, par.nf_max_db);
  EXPECT_EQ(serial.gt_min_db, par.gt_min_db);
  EXPECT_EQ(serial.gt_avg_db, par.gt_avg_db);
  EXPECT_EQ(serial.s11_worst_db, par.s11_worst_db);
  EXPECT_EQ(serial.s22_worst_db, par.s22_worst_db);
  EXPECT_EQ(serial.mu_min, par.mu_min);

  const rf::SweepData s1 = lna.s_sweep(band, 1);
  const rf::SweepData s4 = lna.s_sweep(band, 4);
  ASSERT_EQ(s1.size(), s4.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].s11, s4[i].s11);
    EXPECT_EQ(s1[i].s21, s4[i].s21);
    EXPECT_EQ(s1[i].s12, s4[i].s12);
    EXPECT_EQ(s1[i].s22, s4[i].s22);
  }
}

#if defined(GNSSLNA_OBS_ENABLED)

// The telemetry layer promises that counter TOTALS are bit-identical for
// any thread count (thread-local shards + commutative integer merge).  The
// only exceptions are the counters tracking per-thread workspace state —
// how often a thread's workspace was reused and how much arena it
// committed depend on work distribution by construction.
TEST(ParallelObs, EvaluationCounterTotalsAreBitIdenticalAcrossThreadCounts) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);

  const device::Phemt dev = device::Phemt::reference_device();
  numeric::Rng rng(2024);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 8; ++i) {
    points.push_back(amplifier::DesignVector::bounds().sample(rng));
  }

  const auto is_rebind_counter = [](const std::string& name) {
    return name == "circuit.batch.workspace_reuses" ||
           name == "circuit.batch.arena_bytes_hwm";
  };
  const auto run = [&](std::size_t threads) {
    // A fresh problem per run: a reused one keeps each thread's last design
    // point in its memo slot, and whether a thread of the next run starts
    // on that point (a memo hit instead of an evaluation) is scheduling.
    const optimize::GoalProblem problem = amplifier::make_nf_gain_problem(
        dev, amplifier::AmplifierConfig{}, amplifier::DesignGoals{});
    obs::reset();
    numeric::parallel_for(threads, points.size(), [&](std::size_t i) {
      (void)problem.objectives(points[i]);
      for (const auto& constraint : problem.constraints) {
        (void)constraint(points[i]);
      }
    });
    std::vector<obs::CounterValue> out;
    for (obs::CounterValue& c : obs::counter_snapshot()) {
      if (!is_rebind_counter(c.name)) out.push_back(std::move(c));
    }
    return out;
  };

  const auto serial = run(1);
  const auto named = [&](const char* name) {
    for (const obs::CounterValue& c : serial) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };
  // The workload must actually exercise the instrumented evaluation path
  // (the batched core by default).
  EXPECT_GT(named("amplifier.band_evaluations"), 0u);
  EXPECT_GT(named("circuit.batch.solves"), 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto par = run(threads);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].name, par[i].name);
      EXPECT_EQ(serial[i].value, par[i].value)
          << serial[i].name << " at " << threads << " threads";
    }
  }

  obs::reset();
  obs::set_enabled(was_enabled);
}

#endif  // GNSSLNA_OBS_ENABLED

}  // namespace
}  // namespace gnsslna
