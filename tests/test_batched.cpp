// BatchedPlan equivalence and EvalWorkspace property tests.
//
// The frequency-batched evaluation core is the only production path; the
// per-call analyses (circuit::s_params / noise_analysis, one assembly and
// factorization per call) are its test oracle.  The core promises
// BIT-IDENTICAL results to the oracle for every chunking of the grid
// across workspaces: the SoA tables hold exactly the values the element
// closures return, batched assembly replays the same additions in the
// same order, and the blocked LU/substitution kernels perform per-lane
// exactly the scalar factorization's arithmetic.  Every comparison here is
// therefore an exact == on doubles, not a tolerance — except the one
// golden pin at the bottom, which guards absolute values across
// toolchains.
#include <gtest/gtest.h>

#include <numbers>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "amplifier/lna.h"
#include "amplifier/plan_writers.h"
#include "circuit/analysis.h"
#include "circuit/batched.h"
#include "circuit/netlist.h"
#include "circuit/noisy_twoport.h"
#include "device/phemt.h"
#include "passives/catalog.h"
#include "rf/metrics.h"
#include "rf/sweep.h"
#include "rf/units.h"

namespace gnsslna::circuit {
namespace {

void expect_bitwise_eq(const Complex& a, const Complex& b) {
  EXPECT_EQ(a.real(), b.real());
  EXPECT_EQ(a.imag(), b.imag());
}

void expect_bitwise_eq(const rf::SParams& a, const rf::SParams& b) {
  expect_bitwise_eq(a.s11, b.s11);
  expect_bitwise_eq(a.s12, b.s12);
  expect_bitwise_eq(a.s21, b.s21);
  expect_bitwise_eq(a.s22, b.s22);
}

void expect_bitwise_eq(const NoiseResult& a, const NoiseResult& b) {
  EXPECT_EQ(a.source_noise_psd, b.source_noise_psd);
  EXPECT_EQ(a.noise_factor, b.noise_factor);
  EXPECT_EQ(a.noise_figure_db, b.noise_figure_db);
  EXPECT_EQ(a.output_noise_psd, b.output_noise_psd);
}

void expect_report_eq(const amplifier::BandReport& a,
                      const amplifier::BandReport& b) {
  EXPECT_EQ(a.nf_avg_db, b.nf_avg_db);
  EXPECT_EQ(a.nf_max_db, b.nf_max_db);
  EXPECT_EQ(a.gt_min_db, b.gt_min_db);
  EXPECT_EQ(a.gt_avg_db, b.gt_avg_db);
  EXPECT_EQ(a.s11_worst_db, b.s11_worst_db);
  EXPECT_EQ(a.s22_worst_db, b.s22_worst_db);
  EXPECT_EQ(a.mu_min, b.mu_min);
  EXPECT_EQ(a.id_a, b.id_a);
}

/// Random two-port ladder: series elements chain port 1 to port 2 with a
/// random shunt from every intermediate node, drawing from every element
/// kind the netlist supports (R, L, C, dispersive lossy impedance, passive
/// two-port, noisy three-terminal).
Netlist random_netlist(std::mt19937& rng) {
  std::uniform_real_distribution<double> ur(0.0, 1.0);
  const auto r_val = [&] { return 10.0 + 290.0 * ur(rng); };
  const auto l_val = [&] { return 1e-9 + 20e-9 * ur(rng); };
  const auto c_val = [&] { return 0.2e-12 + 10e-12 * ur(rng); };

  Netlist nl;
  const int sections = 2 + static_cast<int>(ur(rng) * 3.0);  // 2..4
  NodeId prev = nl.add_node();
  const NodeId first = prev;
  for (int s = 0; s < sections; ++s) {
    const NodeId next = nl.add_node();
    switch (static_cast<int>(ur(rng) * 5.0)) {
      case 0:
        nl.add_resistor(prev, next, r_val());
        break;
      case 1:
        nl.add_capacitor(prev, next, c_val());
        break;
      case 2: {
        const double r = r_val(), l = l_val();
        nl.add_lossy_impedance(prev, next, [r, l](double f) {
          return Complex{r, 2.0 * std::numbers::pi * f * l};
        });
        break;
      }
      case 3: {
        const double r = r_val(), l = l_val();
        add_passive_twoport(nl, prev, next, kGround, [r, l](double f) {
          const Complex y = 1.0 / Complex{r, 2.0 * std::numbers::pi * f * l};
          rf::YParams yp;
          yp.frequency_hz = f;
          yp.y11 = y;
          yp.y12 = -y;
          yp.y21 = -y;
          yp.y22 = y;
          return yp;
        });
        break;
      }
      default: {
        const double gm = 0.01 + 0.05 * ur(rng);
        add_noisy_three_terminal(
            nl, prev, next, kGround,
            [gm](double f) {
              rf::YParams yp;
              yp.frequency_hz = f;
              yp.y11 = Complex{1e-3, 2.0 * std::numbers::pi * f * 0.4e-12};
              yp.y12 = Complex{-1e-4, 0.0};
              yp.y21 = Complex{gm, -1e-3};
              yp.y22 = Complex{2e-3, 2.0 * std::numbers::pi * f * 0.2e-12};
              return yp;
            },
            [](double f) {
              rf::NoiseParams np;
              np.frequency_hz = f;
              np.f_min = 1.2;
              np.r_n = 12.0;
              np.gamma_opt = Complex{0.3, 0.2};
              return np;
            });
        break;
      }
    }
    if (ur(rng) < 0.7) {
      nl.add_resistor(next, kGround, 5.0 * r_val());
    } else {
      nl.add_inductor(next, kGround, l_val());
    }
    prev = next;
  }
  nl.add_port(first);
  nl.add_port(prev);
  return nl;
}

/// Runs the batched plan over `grid` split into `nchunks` contiguous
/// workspace chunks and checks every lane bit-identical against the
/// per-call oracle analyses; also checks noise_sweep against lane-by-lane
/// noise_at.
void expect_batched_matches(const Netlist& nl, const std::vector<double>& grid,
                            std::size_t nchunks) {
  const BatchedPlan bplan(nl, grid);
  const std::size_t nf = grid.size();
  nchunks = std::min(nchunks, nf);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const ChunkRange r = chunk_range(c, nchunks, nf);
    EvalWorkspace ws;
    bplan.factor(ws, r.begin, r.end);
    bplan.solve_ports(ws);
    bplan.solve_output_transfer(ws, 1);
    std::vector<NoiseResult> sweep(r.end - r.begin);
    bplan.noise_sweep(ws, 0, 1, sweep.data());
    for (std::size_t fi = r.begin; fi < r.end; ++fi) {
      SCOPED_TRACE("lane " + std::to_string(fi) + " of chunk " +
                   std::to_string(c) + "/" + std::to_string(nchunks));
      const rf::SParams s = bplan.s_params_at(ws, fi);
      expect_bitwise_eq(s, s_params(nl, grid[fi]));
      const NoiseResult n = bplan.noise_at(ws, fi, 0, 1);
      expect_bitwise_eq(n, noise_analysis(nl, 0, 1, grid[fi]));
      expect_bitwise_eq(sweep[fi - r.begin], n);
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence on the fig. 3 preamplifier netlist, every chunking

TEST(BatchedPlan, MatchesOracleOnPreamplifier) {
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist nl = lna.build_netlist();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu.begin(), mu.end());
  for (const std::size_t nchunks : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("chunks " + std::to_string(nchunks));
    expect_batched_matches(nl, grid, nchunks);
  }
}

// ---------------------------------------------------------------------------
// Equivalence on a randomized corpus: >= 200 netlist perturbations, each
// checked at every thread-chunk count

TEST(BatchedPlan, MatchesOracleOnRandomCorpus) {
  std::mt19937 rng(20260807u);
  const std::vector<double> grid = rf::linear_grid(0.8e9, 2.4e9, 5);
  for (int k = 0; k < 200; ++k) {
    SCOPED_TRACE("random netlist #" + std::to_string(k));
    const Netlist nl = random_netlist(rng);
    for (const std::size_t nchunks : {1u, 2u, 4u, 8u}) {
      expect_batched_matches(nl, grid, nchunks);
    }
  }
}

// ---------------------------------------------------------------------------
// Sub-range transfer solves

TEST(BatchedPlan, TransferSubRangeMatchesFullRange) {
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist nl = lna.build_netlist();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu.begin(), mu.end());
  const std::size_t band = amplifier::LnaDesign::default_band().size();

  const BatchedPlan plan(nl, grid);
  EvalWorkspace full, sub;
  plan.factor(full, 0, grid.size());
  plan.solve_output_transfer(full, 1);
  plan.factor(sub, 0, grid.size());
  plan.solve_output_transfer(sub, 1, 0, band);  // band lanes only
  std::vector<NoiseResult> nf(grid.size()), ns(band);
  plan.noise_sweep(full, 0, 1, nf.data());  // whole range...
  plan.noise_sweep(sub, 0, 1, ns.data());
  for (std::size_t fi = 0; fi < band; ++fi) {
    SCOPED_TRACE("band lane " + std::to_string(fi));
    expect_bitwise_eq(plan.noise_at(sub, fi, 0, 1),
                      plan.noise_at(full, fi, 0, 1));
    expect_bitwise_eq(ns[fi], nf[fi]);  // ...agrees on the shared prefix
  }
  // Lanes outside the solved transfer range refuse to answer.
  EXPECT_THROW(plan.noise_at(sub, band, 0, 1), std::logic_error);
}

// ---------------------------------------------------------------------------
// BandReport against the per-call oracle, across thread counts and design
// steps

/// The oracle band report: per-call s_params / noise_analysis over a fresh
/// netlist of the design (one assembly and factorization per analysis),
/// reduced exactly as amplifier::reduce_band_report documents — in-band
/// figures in grid order, mu_min over the stability grid.
amplifier::BandReport oracle_report(const amplifier::LnaDesign& lna,
                                    const std::vector<double>& band) {
  const Netlist nl = lna.build_netlist();
  amplifier::BandReport rep;
  rep.id_a = lna.bias().id_a;
  double nf_sum = 0.0, gt_sum = 0.0;
  rep.nf_max_db = -1e9;
  rep.gt_min_db = 1e9;
  rep.s11_worst_db = -1e9;
  rep.s22_worst_db = -1e9;
  for (const double f : band) {
    const rf::SParams s = s_params(nl, f);
    const double nf = noise_analysis(nl, 0, 1, f).noise_figure_db;
    const double gt = rf::db20(s.s21);
    nf_sum += nf;
    gt_sum += gt;
    rep.nf_max_db = std::max(rep.nf_max_db, nf);
    rep.gt_min_db = std::min(rep.gt_min_db, gt);
    rep.s11_worst_db = std::max(rep.s11_worst_db, rf::db20(s.s11));
    rep.s22_worst_db = std::max(rep.s22_worst_db, rf::db20(s.s22));
  }
  rep.nf_avg_db = nf_sum / static_cast<double>(band.size());
  rep.gt_avg_db = gt_sum / static_cast<double>(band.size());
  rep.mu_min = 1e9;
  for (const double f : amplifier::LnaDesign::stability_grid()) {
    const rf::SParams s = s_params(nl, f);
    rep.mu_min =
        std::min(rep.mu_min, std::min(rf::mu_source(s), rf::mu_load(s)));
  }
  return rep;
}

TEST(BatchedPlan, BandReportIdenticalAcrossPathsAndThreads) {
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  amplifier::BandEvaluator evaluator(dev, config);

  // Value tables each single-field step rewrites on the warm evaluator
  // (dispersive passives carry a thermal-noise CSD beside their stamp): a
  // line is its Y-block + Twiss CSD, a chip capacitor its stamp + CSD, a
  // bias step the drain resistor (stamp + CSD) and the FET (Y-block +
  // correlated pair), the feedback resistor its stamp + CSD.
  const std::size_t kTablesPerStep[4] = {2, 2, 4, 2};

  // A short random walk through design space: every step must match the
  // oracle at every thread count, and so must the warm evaluator that
  // re-tabulates only what the step moved.
  std::mt19937 rng(7u);
  std::uniform_real_distribution<double> ur(0.0, 1.0);
  amplifier::DesignVector d;
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE("design step " + std::to_string(step));
    const amplifier::LnaDesign lna(dev, config, d);
    const amplifier::BandReport ref = oracle_report(lna, band);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      expect_report_eq(ref, lna.evaluate(band, threads));
    }
    expect_report_eq(ref, evaluator.evaluate(d));
    EXPECT_EQ(evaluator.last_retabulated(),
              step == 0 ? 0u : kTablesPerStep[(step - 1) % 4]);

    // Random single-field step for the next round.
    switch (step % 4) {
      case 0: d.l_in_m = 2e-3 + 30e-3 * ur(rng); break;
      case 1: d.c_mid_f = 0.5e-12 + 5e-12 * ur(rng); break;
      case 2: d.vgs = -0.55 + 0.3 * ur(rng); break;
      default: d.r_fb_ohm = 300.0 + 900.0 * ur(rng); break;
    }
  }
  // Re-evaluating the bound design rewrites nothing.
  (void)evaluator.evaluate(d);
  (void)evaluator.evaluate(d);
  EXPECT_EQ(evaluator.last_retabulated(), 0u);
}

TEST(BatchedPlan, AllFieldsWalkMatchesOracleInEveryConfiguration) {
  // The shape optimizer candidates, yield trials and service jobs have:
  // every DesignVector field moves on every step.  The warm evaluator
  // rewrites every design-bound table and must still equal the oracle,
  // with dispersive or ideal passives, with or without the tee.
  const device::Phemt dev = device::Phemt::reference_device();
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  const amplifier::DesignVector nominal;
  for (const bool dispersive : {true, false}) {
    for (const bool tee : {true, false}) {
      SCOPED_TRACE(std::string("dispersive_passives=") +
                   (dispersive ? "on" : "off") +
                   " model_tee=" + (tee ? "on" : "off"));
      amplifier::AmplifierConfig config;
      config.dispersive_passives = dispersive;
      config.model_tee = tee;
      amplifier::BandEvaluator evaluator(dev, config);
      // A full rewrite: five chip L/C (stamp, plus a thermal CSD when
      // dispersive), the feedback and drain resistors (stamp + CSD each),
      // four lines (Y-block + Twiss CSD each), the FET (Y-block + pair).
      const std::size_t full = (dispersive ? 10u : 5u) + 4u + 8u + 2u;
      std::mt19937 rng(31u);
      std::uniform_real_distribution<double> ur(-1.0, 1.0);
      amplifier::DesignVector d;
      for (int step = 0; step < 6; ++step) {
        SCOPED_TRACE("design step " + std::to_string(step));
        expect_report_eq(
            oracle_report(amplifier::LnaDesign(dev, config, d), band),
            evaluator.evaluate(d));
        EXPECT_EQ(evaluator.last_retabulated(), step == 0 ? 0u : full);
        d.vgs = nominal.vgs + 0.05 * ur(rng);
        d.vds = nominal.vds + 0.3 * ur(rng);
        d.l_in_m = nominal.l_in_m * (1.0 + 0.25 * ur(rng));
        d.l_in2_m = nominal.l_in2_m * (1.0 + 0.25 * ur(rng));
        d.l_shunt_h = nominal.l_shunt_h * (1.0 + 0.2 * ur(rng));
        d.c_mid_f = nominal.c_mid_f * (1.0 + 0.2 * ur(rng));
        d.l_out_m = nominal.l_out_m * (1.0 + 0.25 * ur(rng));
        d.c_out_sh_f = nominal.c_out_sh_f * (1.0 + 0.2 * ur(rng));
        d.l_out2_m = nominal.l_out2_m * (1.0 + 0.25 * ur(rng));
        d.l_sdeg_h = nominal.l_sdeg_h * (1.0 + 0.2 * ur(rng));
        d.c_in_f = nominal.c_in_f * (1.0 + 0.2 * ur(rng));
        d.r_fb_ohm = nominal.r_fb_ohm * (1.0 + 0.2 * ur(rng));
      }
    }
  }
}

TEST(BatchedPlan, IdealPassiveStepRewritesOneTable) {
  // With ideal (noiseless) L/C passives a capacitor step rewrites exactly
  // ONE stamp table, and the warm report still matches the oracle.
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.dispersive_passives = false;
  amplifier::BandEvaluator evaluator(dev, config);
  amplifier::DesignVector d;
  (void)evaluator.evaluate(d);
  d.c_mid_f = 0.8e-12;
  const amplifier::BandReport warm = evaluator.evaluate(d);
  EXPECT_EQ(evaluator.last_retabulated(), 1u);
  expect_report_eq(warm,
                   oracle_report(amplifier::LnaDesign(dev, config, d),
                                 amplifier::LnaDesign::default_band()));
}

TEST(BatchedPlan, LaneRangeReportsMatchTheOracleOverEachRange) {
  // One evaluator over a concatenated in-band grid reduces one report per
  // lane range; each equals the oracle over just that range's points
  // (the stability lanes are shared by every report).
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  const std::vector<double> sub = {1.20e9, 1.21e9, 1.22e9};
  std::vector<double> grid = band;
  grid.insert(grid.end(), sub.begin(), sub.end());
  const std::vector<amplifier::LaneRange> ranges = {{0, 7}, {7, 10}, {2, 5}};
  amplifier::BandEvaluator evaluator(dev, config, grid, ranges);
  amplifier::DesignVector d;
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE("design step " + std::to_string(step));
    const amplifier::LnaDesign lna(dev, config, d);
    std::vector<amplifier::BandReport> reports(ranges.size());
    evaluator.evaluate(d, reports);
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      expect_report_eq(
          oracle_report(lna, {grid.begin() + ranges[k].begin,
                              grid.begin() + ranges[k].end}),
          reports[k]);
    }
    d.vgs -= 0.02;
    d.l_out_m += 1e-3;
  }
  // A multi-range evaluator has no single report.
  EXPECT_THROW((void)evaluator.evaluate(d), std::invalid_argument);
  // Ranges must be non-empty and inside the band.
  EXPECT_THROW(amplifier::BandEvaluator(dev, config, band, {{3, 3}}),
               std::invalid_argument);
  EXPECT_THROW(amplifier::BandEvaluator(dev, config, band, {{5, 8}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// EvalWorkspace properties

TEST(EvalWorkspace, RebindsAcrossPlansOfDifferentShape) {
  // One workspace cycled between two plans of different unknown/element
  // counts answers exactly like a fresh workspace each time, and its
  // arena only ever grows to the larger footprint (reuse, not realloc).
  std::mt19937 rng(99u);
  const std::vector<double> grid = rf::linear_grid(0.9e9, 2.1e9, 6);
  const Netlist small = random_netlist(rng);
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist big = lna.build_netlist();
  const BatchedPlan ps(small, grid);
  const BatchedPlan pb(big, grid);

  EvalWorkspace shared;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (const BatchedPlan* plan : {&ps, &pb}) {
      plan->factor(shared, 0, grid.size());
      plan->solve_ports(shared);
      EvalWorkspace fresh;
      plan->factor(fresh, 0, grid.size());
      plan->solve_ports(fresh);
      for (std::size_t fi = 0; fi < grid.size(); ++fi) {
        expect_bitwise_eq(plan->s_params_at(shared, fi),
                          plan->s_params_at(fresh, fi));
      }
    }
  }
  const std::size_t hwm = shared.arena_high_water();
  EXPECT_GT(hwm, 0u);
  // Another full cycle must not move the high-water mark by a byte.
  pb.factor(shared, 0, grid.size());
  ps.factor(shared, 0, grid.size());
  EXPECT_EQ(shared.arena_high_water(), hwm);
}

TEST(EvalWorkspace, PartialRangeRebindKeepsLaneIdentity) {
  // Rebinding the same workspace to different lane sub-ranges of one plan
  // never changes what a lane answers.
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist nl = lna.build_netlist();
  const std::vector<double> grid = amplifier::LnaDesign::stability_grid();
  const BatchedPlan plan(nl, grid);

  EvalWorkspace ref;
  plan.factor(ref, 0, grid.size());
  plan.solve_ports(ref);

  EvalWorkspace ws;
  for (const auto& [b, e] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 3}, {3, grid.size()}, {1, 4}, {0, grid.size()}}) {
    SCOPED_TRACE("range [" + std::to_string(b) + ", " + std::to_string(e) +
                 ")");
    plan.factor(ws, b, e);
    EXPECT_EQ(ws.f_begin(), b);
    EXPECT_EQ(ws.f_end(), e);
    plan.solve_ports(ws);
    for (std::size_t fi = b; fi < e; ++fi) {
      expect_bitwise_eq(plan.s_params_at(ws, fi), plan.s_params_at(ref, fi));
    }
    // Lanes outside the bound range are refused, not misread.
    if (b > 0) {
      EXPECT_THROW(plan.s_params_at(ws, b - 1), std::logic_error);
    }
    if (e < grid.size()) {
      EXPECT_THROW(plan.s_params_at(ws, e), std::logic_error);
    }
  }
}

TEST(EvalWorkspace, RevisionBumpInvalidatesFactorization) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  amplifier::DesignVector d;
  const amplifier::LnaDesign lna(dev, config, d);
  amplifier::DesignBindings b;
  const Netlist nl = lna.build_netlist(&b);
  const std::vector<double> grid = amplifier::LnaDesign::default_band();

  BatchedPlan plan(nl, grid);
  EvalWorkspace ws;
  plan.factor(ws, 0, grid.size());
  plan.solve_ports(ws);
  EXPECT_TRUE(ws.factored());

  // A direct write of a matrix-side table plus mark_values_dirty() bumps
  // the plan revision: the old factorization must refuse to serve
  // solves...
  d.c_mid_f = 0.9e-12;
  amplifier::planw::write_lossy(
      plan, b.cmid, passives::make_capacitor(d.c_mid_f, config.package),
      amplifier::planw::frequency_table(plan.grid()), config.t_ambient_k);
  const std::uint64_t before = plan.revision();
  plan.mark_values_dirty();
  EXPECT_GT(plan.revision(), before);
  EXPECT_THROW(plan.solve_ports(ws), std::logic_error);
  EXPECT_THROW(plan.s_params_at(ws, 0), std::logic_error);

  // ...and a re-factor answers exactly like a fresh plan of the new
  // design.
  plan.factor(ws, 0, grid.size());
  plan.solve_ports(ws);
  const BatchedPlan fresh_plan(
      amplifier::LnaDesign(dev, config, d).build_netlist(), grid);
  EvalWorkspace fresh_ws;
  fresh_plan.factor(fresh_ws, 0, grid.size());
  fresh_plan.solve_ports(fresh_ws);
  for (std::size_t fi = 0; fi < grid.size(); ++fi) {
    expect_bitwise_eq(plan.s_params_at(ws, fi),
                      fresh_plan.s_params_at(fresh_ws, fi));
  }

  // Factoring again without a new write is a no-op that keeps the
  // factorization valid.
  plan.factor(ws, 0, grid.size());
  EXPECT_TRUE(ws.factored());
  expect_bitwise_eq(plan.s_params_at(ws, 0),
                    fresh_plan.s_params_at(fresh_ws, 0));
}

TEST(EvalWorkspace, TwoThreadsWithDistinctWorkspacesAgreeWithSerial) {
  // One shared (const) plan, one workspace per thread: the TSan job runs
  // this to prove the factor/solve/read path is data-race-free, and the
  // results must equal the serial single-chunk evaluation bit for bit.
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist nl = lna.build_netlist();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu.begin(), mu.end());
  const BatchedPlan plan(nl, grid);

  EvalWorkspace serial;
  plan.factor(serial, 0, grid.size());
  plan.solve_ports(serial);

  std::vector<rf::SParams> threaded(grid.size());
  const std::size_t mid = grid.size() / 2;
  const auto run = [&](std::size_t begin, std::size_t end) {
    EvalWorkspace ws;
    plan.factor(ws, begin, end);
    plan.solve_ports(ws);
    for (std::size_t fi = begin; fi < end; ++fi) {
      threaded[fi] = plan.s_params_at(ws, fi);
    }
  };
  std::thread t1(run, 0, mid);
  std::thread t2(run, mid, grid.size());
  t1.join();
  t2.join();
  for (std::size_t fi = 0; fi < grid.size(); ++fi) {
    expect_bitwise_eq(threaded[fi], plan.s_params_at(serial, fi));
  }
}

// ---------------------------------------------------------------------------
// Swept analyses route through the batched core

TEST(BatchedPlan, SweepsMatchPerCallAnalyses) {
  std::mt19937 rng(123u);
  const std::vector<double> grid = rf::linear_grid(0.8e9, 2.4e9, 9);
  for (int k = 0; k < 5; ++k) {
    SCOPED_TRACE("random netlist #" + std::to_string(k));
    const Netlist nl = random_netlist(rng);
    const rf::SweepData serial = s_sweep(nl, grid, 1);
    const rf::SweepData fanned = s_sweep(nl, grid, 4);
    const std::vector<double> nf = noise_figure_sweep(nl, 0, 1, grid);
    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(nf.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      expect_bitwise_eq(serial[i], s_params(nl, grid[i]));
      expect_bitwise_eq(fanned[i], serial[i]);
      EXPECT_EQ(nf[i], noise_analysis(nl, 0, 1, grid[i]).noise_figure_db);
    }
  }
}

// ---------------------------------------------------------------------------
// Fig. 3 golden pin: absolute band figures of the default design

TEST(BatchedPlan, Fig3DefaultDesignGoldenReport) {
  // Guards the physics end to end (element models -> assembly -> batched
  // solve -> reduction) against silent drift.  Tolerances are loose
  // enough for libm differences across toolchains, tight enough that any
  // modelling or kernel regression trips them.
  amplifier::BandEvaluator ev(device::Phemt::reference_device(),
                              amplifier::AmplifierConfig{});
  const amplifier::BandReport r = ev.evaluate(amplifier::DesignVector{});
  EXPECT_NEAR(r.nf_avg_db, 0.680293477717, 1e-6);
  EXPECT_NEAR(r.nf_max_db, 0.807885110992, 1e-6);
  EXPECT_NEAR(r.gt_min_db, 12.1852387924, 1e-5);
  EXPECT_NEAR(r.gt_avg_db, 14.5619521333, 1e-5);
  EXPECT_NEAR(r.s11_worst_db, -2.56393544639, 1e-5);
  EXPECT_NEAR(r.s22_worst_db, -1.96303213864, 1e-5);
  EXPECT_NEAR(r.mu_min, 1.09509396899, 1e-6);
  EXPECT_NEAR(r.id_a, 0.0404973351933, 1e-9);
}

}  // namespace
}  // namespace gnsslna::circuit
