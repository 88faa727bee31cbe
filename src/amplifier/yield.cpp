#include "amplifier/yield.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "amplifier/plan_writers.h"
#include "microstrip/discontinuity.h"
#include "numeric/parallel.h"
#include "numeric/stats.h"
#include "obs/obs.h"
#include "passives/catalog.h"

namespace gnsslna::amplifier {

namespace {

/// Cached design box: clamping must not allocate in the per-trial path.
const optimize::Bounds& design_bounds() {
  static const optimize::Bounds bounds = DesignVector::bounds();
  return bounds;
}

/// Componentwise clamp into DesignVector::bounds(), field order matching
/// to_vector() — exactly Bounds::clamp without the vector round trip.
void clamp_design(DesignVector& d) {
  const optimize::Bounds& b = design_bounds();
  const auto clamp_to = [&](double& v, std::size_t i) {
    if (v < b.lower[i]) v = b.lower[i];
    if (v > b.upper[i]) v = b.upper[i];
  };
  clamp_to(d.vgs, 0);
  clamp_to(d.vds, 1);
  clamp_to(d.l_in_m, 2);
  clamp_to(d.l_in2_m, 3);
  clamp_to(d.l_shunt_h, 4);
  clamp_to(d.c_mid_f, 5);
  clamp_to(d.l_out_m, 6);
  clamp_to(d.c_out_sh_f, 7);
  clamp_to(d.l_out2_m, 8);
  clamp_to(d.l_sdeg_h, 9);
  clamp_to(d.c_in_f, 10);
  clamp_to(d.r_fb_ohm, 11);
}

TrialOutcome outcome_from(const BandReport& rep, const DesignGoals& goals) {
  TrialOutcome out;
  out.nf_avg_db = rep.nf_avg_db;
  out.gt_min_db = rep.gt_min_db;
  out.pass = rep.nf_avg_db <= goals.nf_goal_db &&
             rep.gt_min_db >= goals.gain_goal_db &&
             rep.s11_worst_db <= goals.s11_goal_db &&
             rep.s22_worst_db <= goals.s22_goal_db &&
             rep.mu_min >= goals.mu_margin;
  if (!std::isfinite(out.nf_avg_db) || !std::isfinite(out.gt_min_db)) {
    out = TrialOutcome{};
    out.failed = true;
  }
  return out;
}

/// A full LnaDesign + transient plan per trial: the fallback when the
/// nominal design itself is infeasible (no persistent plan can be built),
/// so each trial is classified on its own draw.
TrialOutcome rebuild_trial(const device::Phemt& device,
                           const AmplifierConfig& base,
                           const std::vector<double>& band,
                           const TrialDraw& draw, const DesignGoals& goals) {
  try {
    AmplifierConfig cfg = base;
    // Board perturbation only: w50_m stays at the resolved nominal (the
    // mask is etched once), so resolve() inside LnaDesign re-validates the
    // perturbed substrate without re-synthesizing widths.
    cfg.substrate = draw.substrate;
    const BandReport rep = LnaDesign(device, cfg, draw.design).evaluate(band);
    return outcome_from(rep, goals);
  } catch (const std::exception&) {
    TrialOutcome out;
    out.failed = true;
    return out;
  }
}

/// Fixed-point scale for the streaming sums: 2^24 keeps quantization at
/// ~6e-8 dB while int64 stays overflow-safe past 5e8 samples of |100| dB.
constexpr double kFixedScale = 16777216.0;

std::int64_t to_fixed(double v) { return std::llround(v * kFixedScale); }

/// Order-independent streaming statistics: integer counts, fixed-point
/// sums, exact extrema and fixed-grid histograms.  Any merge order (and
/// therefore any thread count / shard size) produces identical bits.
struct StreamingStats {
  std::uint64_t count = 0;
  std::uint64_t passes = 0;
  std::uint64_t failed = 0;
  std::int64_t nf_sum = 0, gt_sum = 0;
  double nf_min = std::numeric_limits<double>::infinity();
  double nf_max = -std::numeric_limits<double>::infinity();
  double gt_min = std::numeric_limits<double>::infinity();
  double gt_max = -std::numeric_limits<double>::infinity();
  /// [0] underflow, [1..bins] grid, [bins+1] overflow.
  std::vector<std::uint64_t> nf_bins, gt_bins;

  void init(std::size_t bins) {
    nf_bins.assign(bins + 2, 0);
    gt_bins.assign(bins + 2, 0);
  }

  static std::size_t bin_of(double v, double lo, double hi,
                            std::size_t bins) {
    if (v < lo) return 0;
    if (v >= hi) return bins + 1;
    const double x = (v - lo) / (hi - lo) * static_cast<double>(bins);
    std::size_t b = static_cast<std::size_t>(x);
    if (b >= bins) b = bins - 1;  // v just below hi after rounding
    return b + 1;
  }

  void add(const TrialOutcome& o, const YieldOptions& opt) {
    ++count;
    if (o.failed) {
      ++failed;
      return;
    }
    if (o.pass) ++passes;
    nf_sum += to_fixed(o.nf_avg_db);
    gt_sum += to_fixed(o.gt_min_db);
    nf_min = std::min(nf_min, o.nf_avg_db);
    nf_max = std::max(nf_max, o.nf_avg_db);
    gt_min = std::min(gt_min, o.gt_min_db);
    gt_max = std::max(gt_max, o.gt_min_db);
    const std::size_t bins = nf_bins.size() - 2;
    ++nf_bins[bin_of(o.nf_avg_db, opt.nf_hist_lo_db, opt.nf_hist_hi_db, bins)];
    ++gt_bins[bin_of(o.gt_min_db, opt.gt_hist_lo_db, opt.gt_hist_hi_db, bins)];
  }

  void merge(const StreamingStats& other) {
    count += other.count;
    passes += other.passes;
    failed += other.failed;
    nf_sum += other.nf_sum;
    gt_sum += other.gt_sum;
    nf_min = std::min(nf_min, other.nf_min);
    nf_max = std::max(nf_max, other.nf_max);
    gt_min = std::min(gt_min, other.gt_min);
    gt_max = std::max(gt_max, other.gt_max);
    for (std::size_t i = 0; i < nf_bins.size(); ++i) {
      nf_bins[i] += other.nf_bins[i];
      gt_bins[i] += other.gt_bins[i];
    }
  }
};

/// Percentile from a fixed-grid histogram: walk the cumulative counts to
/// the fractional rank and interpolate linearly inside the landing bin
/// (resolution = one bin width), clamped to the exact observed range.
/// The under/overflow bins interpolate over [vmin, lo] / [hi, vmax].
double hist_percentile(const std::vector<std::uint64_t>& bins, double lo,
                       double hi, std::uint64_t total, double p, double vmin,
                       double vmax) {
  const std::size_t nbins = bins.size() - 2;
  const double width = (hi - lo) / static_cast<double>(nbins);
  const double target = p / 100.0 * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const double nb = static_cast<double>(bins[i]);
    if (nb > 0.0 && cum + nb >= target) {
      double blo, bhi;
      if (i == 0) {
        blo = std::min(vmin, lo);
        bhi = lo;
      } else if (i == bins.size() - 1) {
        blo = hi;
        bhi = std::max(vmax, hi);
      } else {
        blo = lo + static_cast<double>(i - 1) * width;
        bhi = blo + width;
      }
      const double frac = std::max(0.0, (target - cum)) / nb;
      const double x = blo + frac * (bhi - blo);
      return std::min(std::max(x, vmin), vmax);
    }
    cum += nb;
  }
  return vmax;
}

YieldReport report_from(const StreamingStats& s, std::size_t n,
                        const YieldOptions& opt) {
  YieldReport rep;
  rep.samples = n;
  rep.passes = s.passes;
  rep.failed_evals = s.failed;
  rep.pass_rate = static_cast<double>(s.passes) / static_cast<double>(n);
  const numeric::WilsonInterval ci = numeric::wilson_interval(s.passes, n);
  rep.pass_rate_ci95_lo = ci.lo;
  rep.pass_rate_ci95_hi = ci.hi;
  const std::uint64_t m = s.count - s.failed;
  if (m > 0) {
    const double inv = 1.0 / (kFixedScale * static_cast<double>(m));
    rep.nf_avg_mean_db = static_cast<double>(s.nf_sum) * inv;
    rep.gt_min_mean_db = static_cast<double>(s.gt_sum) * inv;
    rep.nf_avg_min_db = s.nf_min;
    rep.nf_avg_max_db = s.nf_max;
    rep.gt_min_min_db = s.gt_min;
    rep.gt_min_max_db = s.gt_max;
    rep.nf_avg_p95_db =
        hist_percentile(s.nf_bins, opt.nf_hist_lo_db, opt.nf_hist_hi_db, m,
                        95.0, s.nf_min, s.nf_max);
    rep.gt_min_p5_db =
        hist_percentile(s.gt_bins, opt.gt_hist_lo_db, opt.gt_hist_hi_db, m,
                        5.0, s.gt_min, s.gt_max);
  }
  return rep;
}

}  // namespace

TrialDraw pseudo_trial_draw(const numeric::Rng& root, std::uint64_t trial,
                            const DesignVector& nominal,
                            const microstrip::Substrate& substrate,
                            const ToleranceModel& tolerances) {
  numeric::Rng trial_rng = root.split(trial);
  // Uniform within +-tol models a binned-and-sorted component population;
  // Gaussian models the etch/bias errors.  The draw order is load-bearing:
  // lab::fabricate replicates it variate for variate.
  const auto uniform_tol = [&](double nominal_v, double rel) {
    return nominal_v * (1.0 + rel * (2.0 * trial_rng.uniform() - 1.0));
  };
  TrialDraw out{nominal, substrate};
  DesignVector& d = out.design;
  d.l_shunt_h = uniform_tol(d.l_shunt_h, tolerances.lc_relative);
  d.c_mid_f = uniform_tol(d.c_mid_f, tolerances.lc_relative);
  d.c_out_sh_f = uniform_tol(d.c_out_sh_f, tolerances.lc_relative);
  d.l_sdeg_h = uniform_tol(d.l_sdeg_h, tolerances.lc_relative);
  d.c_in_f = uniform_tol(d.c_in_f, tolerances.lc_relative);
  d.r_fb_ohm = uniform_tol(d.r_fb_ohm, 0.01);  // 1% thick film
  d.l_in_m += trial_rng.normal(0.0, tolerances.length_sigma_m);
  d.l_in2_m += trial_rng.normal(0.0, tolerances.length_sigma_m);
  d.l_out_m += trial_rng.normal(0.0, tolerances.length_sigma_m);
  d.l_out2_m += trial_rng.normal(0.0, tolerances.length_sigma_m);
  d.vgs += trial_rng.normal(0.0, tolerances.vbias_sigma);
  d.vds += trial_rng.normal(0.0, tolerances.vbias_sigma);
  out.substrate.epsilon_r =
      uniform_tol(out.substrate.epsilon_r, tolerances.er_relative);
  out.substrate.height_m =
      uniform_tol(out.substrate.height_m, tolerances.height_relative);
  clamp_design(d);
  return out;
}

TrialDraw sobol_trial_draw(const numeric::ScrambledSobol& sequence,
                           std::uint64_t trial, const DesignVector& nominal,
                           const microstrip::Substrate& substrate,
                           const ToleranceModel& tolerances) {
  double u[kYieldTrialDimensions];
  sequence.point(trial, u);
  const auto uniform_tol = [](double nominal_v, double rel, double uu) {
    return nominal_v * (1.0 + rel * (2.0 * uu - 1.0));
  };
  // Quantile transform for the Gaussians (one coordinate, one variate —
  // Box-Muller would consume two and break the net structure).  The
  // coordinate is kept away from {0, 1} so the transform stays finite;
  // 2^-33 is below the sequence's 32-bit resolution, so only the exact
  // origin point is affected (at ~6.5 sigma).
  const auto gauss = [](double sigma, double uu) {
    constexpr double eps = 0x1.0p-33;
    return sigma * numeric::normal_quantile(
                       std::min(std::max(uu, eps), 1.0 - eps));
  };
  TrialDraw out{nominal, substrate};
  DesignVector& d = out.design;
  d.l_shunt_h = uniform_tol(d.l_shunt_h, tolerances.lc_relative, u[0]);
  d.c_mid_f = uniform_tol(d.c_mid_f, tolerances.lc_relative, u[1]);
  d.c_out_sh_f = uniform_tol(d.c_out_sh_f, tolerances.lc_relative, u[2]);
  d.l_sdeg_h = uniform_tol(d.l_sdeg_h, tolerances.lc_relative, u[3]);
  d.c_in_f = uniform_tol(d.c_in_f, tolerances.lc_relative, u[4]);
  d.r_fb_ohm = uniform_tol(d.r_fb_ohm, 0.01, u[5]);
  d.l_in_m += gauss(tolerances.length_sigma_m, u[6]);
  d.l_in2_m += gauss(tolerances.length_sigma_m, u[7]);
  d.l_out_m += gauss(tolerances.length_sigma_m, u[8]);
  d.l_out2_m += gauss(tolerances.length_sigma_m, u[9]);
  d.vgs += gauss(tolerances.vbias_sigma, u[10]);
  d.vds += gauss(tolerances.vbias_sigma, u[11]);
  out.substrate.epsilon_r =
      uniform_tol(out.substrate.epsilon_r, tolerances.er_relative, u[12]);
  out.substrate.height_m =
      uniform_tol(out.substrate.height_m, tolerances.height_relative, u[13]);
  clamp_design(d);
  return out;
}

YieldTrialEvaluator::YieldTrialEvaluator(const device::Phemt& device,
                                         AmplifierConfig config,
                                         const DesignVector& nominal,
                                         std::vector<double> band_hz)
    : device_(device),
      config_(std::move(config)),
      band_hz_(band_hz.empty() ? LnaDesign::default_band()
                               : std::move(band_hz)) {
  config_.resolve();
  // Cold build from the nominal design: closures, plan layout and
  // workspace blocks allocate freely here; every trial after the first is
  // allocation-free.
  const LnaDesign lna(device_, config_, nominal);
  const circuit::Netlist nl = lna.build_netlist(&bindings_);
  std::vector<double> grid = band_hz_;
  const std::vector<double> mu_grid = LnaDesign::stability_grid();
  grid.insert(grid.end(), mu_grid.begin(), mu_grid.end());
  bplan_ = circuit::BatchedPlan(nl, std::move(grid));
  w50_prop_.resize(bplan_.grid().size());
  wbias_prop_.resize(bplan_.grid().size());
  freq_ = planw::frequency_table(bplan_.grid());
  noise_buf_.resize(band_hz_.size());
  nt_adj_ = device_.temperatures();
  if (config_.t_ambient_k != 290.0) {
    const double scale = config_.t_ambient_k / 290.0;
    nt_adj_.tg_k *= scale;
    nt_adj_.td_k *= scale;
  }
}

void YieldTrialEvaluator::retabulate(const TrialDraw& draw,
                                     const BiasNetwork& bias) {
  // Every tolerance draw moves every perturbed parameter almost surely,
  // so — unlike the optimizer-loop BandEvaluator — there is no
  // changed-field tracking: each trial rewrites all perturbed tables.
  // That full rewrite is also what makes trials history-free: the plan
  // state after retabulate() depends only on THIS draw, never on which
  // trials the worker handled before (determinism under any sharding),
  // and a mid-write exception needs no repair pass.
  bplan_.mark_values_dirty();
  const double t = config_.t_ambient_k;
  const DesignVector& d = draw.design;
  const microstrip::Substrate& sub = draw.substrate;
  const std::size_t nb = band_hz_.size();  // noise read in-band only
  const std::vector<double>& grid = bplan_.grid();

  // The trial board's dispersion tables, one per line width (length- and
  // element-independent, shared below).
  const microstrip::Line w50_probe(sub, config_.w50_m, 1e-3);
  const microstrip::Line wbias_probe(sub, config_.w_bias_m, 1e-3);
  for (std::size_t fi = 0; fi < grid.size(); ++fi) {
    w50_prop_[fi] = w50_probe.propagation(grid[fi]);
    wbias_prop_[fi] = wbias_probe.propagation(grid[fi]);
  }

  if (config_.dispersive_passives) {
    planw::write_lossy(bplan_, bindings_.cin,
                       passives::make_capacitor(d.c_in_f, config_.package),
                       freq_, t, nb);
    planw::write_lossy(bplan_, bindings_.lshunt,
                       passives::make_inductor(d.l_shunt_h, config_.package),
                       freq_, t, nb);
    planw::write_lossy(bplan_, bindings_.cmid,
                       passives::make_capacitor(d.c_mid_f, config_.package),
                       freq_, t, nb);
    planw::write_lossy(bplan_, bindings_.lsdeg,
                       passives::make_inductor(d.l_sdeg_h, config_.package),
                       freq_, t, nb);
    planw::write_lossy(bplan_, bindings_.coutsh,
                       passives::make_capacitor(d.c_out_sh_f, config_.package),
                       freq_, t, nb);
  } else {
    planw::write_capacitor(bplan_, bindings_.cin.element, d.c_in_f);
    planw::write_inductor(bplan_, bindings_.lshunt.element, d.l_shunt_h);
    planw::write_capacitor(bplan_, bindings_.cmid.element, d.c_mid_f);
    planw::write_inductor(bplan_, bindings_.lsdeg.element, d.l_sdeg_h);
    planw::write_capacitor(bplan_, bindings_.coutsh.element, d.c_out_sh_f);
  }
  planw::write_resistor(bplan_, bindings_.rfb, d.r_fb_ohm, t, nb);
  planw::write_resistor(bplan_, bindings_.rdrain, bias.r_drain, t, nb);

  // Design-vector matching lines on the trial board.
  planw::write_line(bplan_, bindings_.tlin1, d.l_in_m, w50_prop_, t, nb);
  planw::write_line(bplan_, bindings_.tlin2, d.l_in2_m, w50_prop_, t, nb);
  planw::write_line(bplan_, bindings_.tlout1, d.l_out_m, w50_prop_, t, nb);
  planw::write_line(bplan_, bindings_.tlout2, d.l_out2_m, w50_prop_, t, nb);

  // Substrate-dependent fixed elements the optimizer path never touches:
  // the bias line and the tee parasitics follow the trial's board.
  planw::write_line(bplan_, bindings_.tlbias, config_.l_bias_m, wbias_prop_,
                    t, nb);
  if (bindings_.has_tee) {
    const microstrip::TeeJunction tee(sub, config_.w50_m, config_.w_bias_m);
    planw::write_inductor(bplan_, bindings_.ltee1, tee.arm_inductance_main());
    planw::write_inductor(bplan_, bindings_.ltee2, tee.arm_inductance_main());
    planw::write_inductor(bplan_, bindings_.ltee3,
                          tee.arm_inductance_branch());
    planw::write_capacitor(bplan_, bindings_.ctee, tee.junction_capacitance());
  }

  // The FET at the trial's bias point (same hoisting as fet_closures; the
  // extraction is temperature-independent, so the unadjusted device
  // yields identical values).
  const device::IntrinsicParams ip =
      device_.small_signal(device::Bias{d.vgs, d.vds});
  planw::write_fet(bplan_, bindings_.q1, ip, device_.extrinsics(), nt_adj_,
                   nb);
}

TrialOutcome YieldTrialEvaluator::evaluate(const TrialDraw& draw,
                                           const DesignGoals& goals) {
  GNSSLNA_OBS_COUNT("yield.resyncs");
  try {
    // Reject exactly what the rebuild path rejects, in the same order:
    // board first (AmplifierConfig::resolve validates the substrate),
    // then the operating point — both BEFORE any table is touched.
    draw.substrate.validate();
    const BiasNetwork bias = design_bias(device_, draw.design, config_);
    retabulate(draw, bias);
    const LaneRange band{0, band_hz_.size()};
    BandReport report;
    band_pass(bplan_, workspace_, noise_buf_.data(), band.end, {&band, 1},
              bias.id_a, {&report, 1});
    return outcome_from(report, goals);
  } catch (const std::exception&) {
    TrialOutcome out;
    out.failed = true;
    return out;
  }
}

YieldReport run_yield(const device::Phemt& device,
                      const AmplifierConfig& config,
                      const DesignVector& design, const DesignGoals& goals,
                      std::size_t n, numeric::Rng& rng,
                      const YieldOptions& options) {
  if (n == 0) {
    throw std::invalid_argument("run_yield: n must be >= 1");
  }
  GNSSLNA_OBS_SPAN("amplifier.yield");
  AmplifierConfig base = config;
  base.resolve();
  const std::vector<double> band = LnaDesign::default_band();

  // One fork advances the caller's generator; every trial then derives
  // its draw as a pure function of (snapshot, trial index) — Rng::split
  // for the pseudo stream, the Gray-code formula (scramble masks split
  // from the same snapshot) for Sobol.
  const numeric::Rng root = rng.fork();
  std::optional<numeric::ScrambledSobol> sobol;
  if (options.sampler == YieldSampler::kSobol) {
    sobol.emplace(kYieldTrialDimensions, root);
  }
  const std::size_t shard = options.shard == 0 ? 256 : options.shard;
  const std::size_t bins = options.hist_bins == 0 ? 4096 : options.hist_bins;

  // Pool of per-worker states: each holds a persistent trial evaluator
  // and its private streaming accumulator.  Shards check a state out for
  // their whole range; which shard gets which state is scheduling-
  // dependent, which is harmless because trials are history-free and the
  // accumulators merge order-independently.
  struct Worker {
    std::unique_ptr<YieldTrialEvaluator> eval;
    StreamingStats stats;
  };
  std::vector<std::unique_ptr<Worker>> pool;
  std::vector<Worker*> idle;
  std::mutex pool_mutex;
  const auto acquire = [&]() -> Worker* {
    {
      const std::lock_guard<std::mutex> lock(pool_mutex);
      if (!idle.empty()) {
        Worker* w = idle.back();
        idle.pop_back();
        return w;
      }
    }
    auto fresh = std::make_unique<Worker>();
    fresh->stats.init(bins);
    try {
      fresh->eval =
          std::make_unique<YieldTrialEvaluator>(device, base, design, band);
      GNSSLNA_OBS_COUNT("yield.plan_builds");
    } catch (const std::exception&) {
      // Nominal design itself infeasible: fall back to the per-trial
      // rebuild path, which classifies each trial on its own draw —
      // exactly what the engine would report trial by trial.
      fresh->eval = nullptr;
    }
    const std::lock_guard<std::mutex> lock(pool_mutex);
    pool.push_back(std::move(fresh));
    return pool.back().get();
  };
  const auto release = [&](Worker* w) {
    const std::lock_guard<std::mutex> lock(pool_mutex);
    idle.push_back(w);
  };

  const auto run_range = [&](std::size_t begin, std::size_t end) {
    const std::size_t nshards = (end - begin + shard - 1) / shard;
    numeric::parallel_for(options.threads, nshards, [&](std::size_t s) {
      GNSSLNA_OBS_SPAN("yield.shard");
      const std::size_t t0 = begin + s * shard;
      const std::size_t t1 = std::min(end, t0 + shard);
      Worker* w = acquire();
      const std::uint64_t failed_before = w->stats.failed;
      for (std::size_t i = t0; i < t1; ++i) {
        const TrialDraw draw =
            sobol ? sobol_trial_draw(*sobol, i, design, base.substrate,
                                     options.tolerances)
                  : pseudo_trial_draw(root, i, design, base.substrate,
                                      options.tolerances);
        const TrialOutcome o =
            w->eval ? w->eval->evaluate(draw, goals)
                    : rebuild_trial(device, base, band, draw, goals);
        w->stats.add(o, options);
      }
      GNSSLNA_OBS_COUNT_N("yield.samples", t1 - t0);
      GNSSLNA_OBS_COUNT_N("yield.failed_evals",
                          w->stats.failed - failed_before);
      release(w);
    });
  };

  const auto merged_stats = [&]() {
    StreamingStats total;
    total.init(bins);
    for (const std::unique_ptr<Worker>& w : pool) total.merge(w->stats);
    return total;
  };

  if (options.trace) {
    // Power-of-two blocks: a barrier after 1, 2, 4, ... samples lets the
    // convergence trace snapshot a deterministic prefix.  Blocks change
    // only WHEN records are cut, never what is computed, so the final
    // report is identical with tracing off.
    std::size_t done = 0, iteration = 0, next = 1;
    while (done < n) {
      const std::size_t end = std::min(n, next);
      run_range(done, end);
      done = end;
      next *= 2;
      const StreamingStats s = merged_stats();
      const numeric::WilsonInterval ci =
          numeric::wilson_interval(s.passes, done);
      obs::TraceRecord rec;
      rec.phase = sobol ? "yield_qmc" : "yield_mc";
      rec.stream = 0;
      rec.iteration = iteration++;
      rec.evaluations = done;
      rec.best_value =
          static_cast<double>(s.passes) / static_cast<double>(done);
      rec.attainment = ci.hi - ci.lo;
      rec.front_size = s.passes;
      rec.hypervolume = static_cast<double>(s.failed);
      options.trace(rec);
    }
  } else {
    run_range(0, n);
  }

  return report_from(merged_stats(), n, options);
}

YieldReport monte_carlo_yield(const device::Phemt& device,
                              const AmplifierConfig& config,
                              const DesignVector& design,
                              const DesignGoals& goals, std::size_t n,
                              numeric::Rng& rng, ToleranceModel tolerances,
                              std::size_t threads) {
  YieldOptions options;
  options.threads = threads;
  options.tolerances = tolerances;
  return run_yield(device, config, design, goals, n, rng, options);
}

}  // namespace gnsslna::amplifier
