#include "lab/measure.h"

#include <cmath>
#include <memory>
#include <utility>

#include "circuit/batched.h"
#include "microstrip/line.h"
#include "nonlinear/two_tone.h"
#include "rf/sweep.h"
#include "rf/touchstone.h"

namespace gnsslna::lab {

namespace {

double rms_s_error(const rf::SweepData& a, const rf::SweepData& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += std::norm(a[i].s11 - b[i].s11) + std::norm(a[i].s12 - b[i].s12) +
           std::norm(a[i].s21 - b[i].s21) + std::norm(a[i].s22 - b[i].s22);
  }
  return std::sqrt(acc / (4.0 * static_cast<double>(a.size())));
}

}  // namespace

std::pair<amplifier::DesignVector, amplifier::AmplifierConfig> fabricate(
    const amplifier::AmplifierConfig& config,
    const amplifier::DesignVector& design, const FabricationModel& fab) {
  amplifier::AmplifierConfig cfg = config;
  cfg.resolve();
  amplifier::DesignVector d = design;
  if (fab.scale == 0.0) {
    return {d, cfg};
  }

  // Same distributions and draw order as the yield analysis
  // (amplifier/yield.cpp) — this IS one Monte-Carlo unit, the one that got
  // soldered.
  numeric::Rng rng(fab.seed);
  const amplifier::ToleranceModel& tol = fab.tolerances;
  const double s = fab.scale;
  const auto uniform_tol = [&](double nominal, double rel) {
    return nominal * (1.0 + s * rel * (2.0 * rng.uniform() - 1.0));
  };

  d.l_shunt_h = uniform_tol(d.l_shunt_h, tol.lc_relative);
  d.c_mid_f = uniform_tol(d.c_mid_f, tol.lc_relative);
  d.c_out_sh_f = uniform_tol(d.c_out_sh_f, tol.lc_relative);
  d.l_sdeg_h = uniform_tol(d.l_sdeg_h, tol.lc_relative);
  d.c_in_f = uniform_tol(d.c_in_f, tol.lc_relative);
  d.r_fb_ohm = uniform_tol(d.r_fb_ohm, 0.01);  // 1% thick film
  d.l_in_m += rng.normal(0.0, s * tol.length_sigma_m);
  d.l_in2_m += rng.normal(0.0, s * tol.length_sigma_m);
  d.l_out_m += rng.normal(0.0, s * tol.length_sigma_m);
  d.l_out2_m += rng.normal(0.0, s * tol.length_sigma_m);
  d.vgs += rng.normal(0.0, s * tol.vbias_sigma);
  d.vds += rng.normal(0.0, s * tol.vbias_sigma);

  const double w50 = cfg.w50_m;  // the board is etched once: width is fixed
  cfg.substrate.epsilon_r =
      uniform_tol(cfg.substrate.epsilon_r, tol.er_relative);
  cfg.substrate.height_m =
      uniform_tol(cfg.substrate.height_m, tol.height_relative);
  cfg.w50_m = w50;

  d = amplifier::DesignVector::from_vector(
      amplifier::DesignVector::bounds().clamp(d.to_vector()));
  return {d, cfg};
}

MeasuredDesignReport measure_design(const device::Phemt& device,
                                    const amplifier::AmplifierConfig& config,
                                    const amplifier::DesignVector& design,
                                    const LabOptions& options) {
  const std::vector<double> grid =
      options.grid_hz.empty() ? rf::linear_grid(1.0e9, 1.8e9, 17)
                              : options.grid_hz;
  const std::size_t threads = options.threads;

  MeasuredDesignReport report;

  // The unit on the bench is the fabricated one; the simulation column of
  // the report is the NOMINAL design — exactly the comparison a prototype
  // write-up makes.
  auto [fab_design, fab_config] =
      fabricate(config, design, options.fabrication);
  report.fabricated = fab_design;
  const amplifier::LnaDesign built(device, fab_config, fab_design);
  amplifier::AmplifierConfig nominal_config = config;
  nominal_config.resolve();
  const amplifier::LnaDesign nominal(device, nominal_config, design);
  const TwoPortDut dut = dut_from_design(built);

  // --- VNA: calibrate, measure, de-embed. ---
  Vna vna(options.vna, grid);
  if (options.use_fixtures) {
    const auto launcher = std::make_shared<microstrip::Line>(
        fab_config.substrate, fab_config.w50_m, options.fixture_length_m);
    const auto fixture_s = [launcher](double f) {
      return launcher->s_params(f);
    };
    vna.set_fixture(fixture_s, fixture_s);
  }
  const SoltCalibration cal = vna.calibrate(threads);
  VnaMeasurement meas = vna.measure(dut, cal, threads);

  report.s_true = built.s_sweep(grid, threads);
  report.s_raw = std::move(meas.raw);
  report.s_dut = std::move(meas.dut);
  report.raw_rms_error = rms_s_error(report.s_raw, report.s_true);
  report.corrected_rms_error = rms_s_error(report.s_dut, report.s_true);

  // --- Y-factor noise-figure meter + source-pull noise parameters. ---
  NoiseFigureMeter meter(options.noise_meter, grid);
  report.nf_points = meter.measure_nf(dut, threads);
  report.noise_parameters =
      meter.measure_noise_parameters(dut, options.noise_states, 0.4, threads);
  // The simulation column: S and NF of the nominal design from ONE batched
  // plan over the grid (port solves + one noise sweep), bit-identical to
  // the per-point LnaDesign::s_params / noise_figure_db by the plan's
  // contract, without a netlist rebuild per point.
  const circuit::BatchedPlan plan(nominal.build_netlist(), grid);
  circuit::EvalWorkspace ws;
  plan.factor(ws, 0, plan.size());
  plan.solve_ports(ws);
  plan.solve_output_transfer(ws, 1);
  std::vector<circuit::NoiseResult> noise(grid.size());
  plan.noise_sweep(ws, 0, 1, noise.data());
  rf::SweepData s_nominal(grid.size());
  report.nf_sim_db.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    s_nominal[i] = plan.s_params_at(ws, i);
    report.nf_sim_db[i] = noise[i].noise_figure_db;
  }

  // --- Two-tone IM3 bench. ---
  Im3Bench bench(options.im3);
  report.im3 = bench.measure(built, threads);
  nonlinear::TwoToneOptions tt;
  tt.f1_hz = options.im3.f1_hz;
  tt.f2_hz = options.im3.f2_hz;
  report.oip3_sim_dbm =
      nonlinear::two_tone_sweep(nominal, options.im3.p_start_dbm,
                                options.im3.p_stop_dbm, options.im3.n_points,
                                tt)
          .oip3_dbm;
  report.oip3_delta_db = report.im3.oip3_dbm - report.oip3_sim_dbm;

  // --- Aggregates for the measured-vs-simulated table. ---
  double nf_meas = 0.0, nf_sim = 0.0, g_meas = 0.0, g_sim = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    nf_meas += report.nf_points[i].nf_db;
    nf_sim += report.nf_sim_db[i];
    g_meas += report.nf_points[i].gain_db;
    g_sim += rf::db_from_ratio(std::norm(s_nominal[i].s21));
  }
  const double n = static_cast<double>(grid.size());
  report.nf_meas_avg_db = nf_meas / n;
  report.nf_sim_avg_db = nf_sim / n;
  report.gain_meas_avg_db = g_meas / n;
  report.gain_sim_avg_db = g_sim / n;

  report.touchstone =
      rf::write_touchstone_string(report.s_dut, report.noise_parameters);
  return report;
}

MeasuredDesignReport measure_design(const device::Phemt& device,
                                    const amplifier::AmplifierConfig& config,
                                    const amplifier::DesignOutcome& outcome,
                                    const LabOptions& options) {
  return measure_design(device, config, outcome.snapped, options);
}

}  // namespace gnsslna::lab
