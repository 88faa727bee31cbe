// Mission-scenario benchmark: cost of the constellation geometry
// reduction and of the scenario-weighted objective the optimizers spin
// on (src/mission/).
//
// Measures three numbers:
//
//   1. Visibility kernel: one visible_satellites() pass over the GPS
//      shell for one observer/epoch — the inner loop of the geometry
//      reduction.
//   2. Scenario analysis: one full analyze_scenario(open_sky) — every
//      shell x observer x epoch, DOP solves, sky integral, derived NF
//      goal.  Paid once per ScenarioObjective construction.
//   3. Weighted objective: one ScenarioObjective::figures() evaluation
//      at a fresh design point (memo-busting bias perturbation) — one
//      batched pass over the union grid (full band, every distinct
//      sub-band carrier, stability), reduced per lane range into the
//      full-band constraint report and the sub-band reports.  This is
//      the per-candidate cost of a scenario design run.
//
//   --json <path>   write bench_util schema-v2 records:
//                     BM_MissionVisibleSatellites   ns per visibility pass
//                     BM_MissionAnalyzeScenario     ns per full analysis
//                     BM_MissionScenarioFigures     ns per objective eval
//
// All records are informational (not gated by perf_smoke).
#include "bench_util.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "amplifier/objectives.h"
#include "device/phemt.h"
#include "mission/constellation.h"
#include "mission/objective.h"
#include "mission/scenario.h"

namespace {

using namespace gnsslna;

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json path]\n", argv[0]);
      return 2;
    }
  }
  bench::JsonRecorder json(json_path);
  bench::heading("mission-scenario kernels");

  const mission::Scenario& open_sky = *mission::find_scenario("open_sky");

  // 1. Visibility kernel (micro): GPS shell, city-center observer.
  {
    const mission::WalkerShell gps = mission::gps_shell();
    const mission::Observer obs{48.0, 11.0};
    double sink = 0.0;
    const std::uint64_t iters = 20000;
    const bench::Stopwatch sw;
    for (std::uint64_t i = 0; i < iters; ++i) {
      const double t_s = 30.0 * static_cast<double>(i % 64);
      for (const mission::VisibleSat& sat :
           mission::visible_satellites(gps, obs, t_s)) {
        sink += sat.elevation_deg;
      }
    }
    const double ns = sw.seconds() * 1e9 / static_cast<double>(iters);
    std::printf("  visible_satellites(GPS): %10.0f ns/pass  (sink %.1f)\n",
                ns, sink);
    json.add("BM_MissionVisibleSatellites", iters, ns);
  }

  // 2. Full geometry reduction of the open-sky scenario.
  {
    double sink = 0.0;
    std::uint64_t iters = 0;
    const bench::Stopwatch sw;
    while (sw.seconds() < 1.0 || iters < 5) {
      const mission::ScenarioAnalysis analysis =
          mission::analyze_scenario(open_sky);
      sink += analysis.nf_goal_db;
      ++iters;
    }
    const double ns = sw.seconds() * 1e9 / static_cast<double>(iters);
    std::printf("  analyze_scenario(open_sky): %10.0f ns/call  (%llu calls, "
                "sink %.3f)\n",
                ns, static_cast<unsigned long long>(iters), sink);
    json.add("BM_MissionAnalyzeScenario", iters, ns);
  }

  // 3. Scenario-weighted objective at fresh design points.
  {
    const mission::ScenarioObjective objective(
        device::Phemt::reference_device(), amplifier::AmplifierConfig{},
        open_sky);
    // Warm the per-thread evaluator caches outside the timed region.
    (void)objective.figures(amplifier::DesignVector{});
    double sink = 0.0;
    std::uint64_t iters = 0;
    const bench::Stopwatch sw;
    while (sw.seconds() < 1.0 || iters < 10) {
      amplifier::DesignVector d;
      // Sub-millivolt bias walk: stays deep inside the bounds but defeats
      // the same-point memo, so every call pays the full evaluation.
      d.vgs += 1e-6 * static_cast<double>(iters % 1000);
      const mission::ScenarioObjective::Figures f = objective.figures(d);
      sink += f.nf_weighted_db;
      ++iters;
    }
    const double ns = sw.seconds() * 1e9 / static_cast<double>(iters);
    std::printf("  ScenarioObjective::figures: %10.0f ns/eval  (%llu evals, "
                "sink %.3f)\n",
                ns, static_cast<unsigned long long>(iters), sink);
    json.add("BM_MissionScenarioFigures", iters, ns);
  }

  if (json.enabled()) json.write();
  return 0;
}
