#include "amplifier/lna.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "amplifier/plan_writers.h"
#include "circuit/noisy_twoport.h"
#include "microstrip/discontinuity.h"
#include "obs/obs.h"
#include "rf/metrics.h"
#include "rf/sweep.h"
#include "rf/units.h"

namespace gnsslna::amplifier {

namespace {

/// Fixed output DC block [F]; its L-band impedance is negligible, so it is
/// not part of the design vector.
constexpr double kOutputBlockF = 33e-12;

/// Fixed DC block in series with the feedback resistor [F].
constexpr double kFeedbackBlockF = 10e-12;

/// Adapter: a dispersive catalog part as a series impedance function.
template <typename Part>
std::function<circuit::Complex(double)> z_of(Part part) {
  return [part = std::move(part)](double f) { return part.impedance(f); };
}

/// Y-block of a microstrip line (copyable by value).
circuit::YBlockFn line_y(microstrip::Line line) {
  return [line = std::move(line)](double f) {
    return microstrip::Line::y_from(line.propagation(f), line.length());
  };
}

/// The linearized-FET element and noise closures.  The bias-dependent
/// small-signal extraction (finite-difference Angelov derivatives) is
/// hoisted out of the per-frequency closures: it is a pure function of the
/// bias, so capturing the result once per design point returns exactly the
/// values Phemt::s_params / Phemt::noise would.
struct FetClosures {
  circuit::YBlockFn y;
  circuit::NoiseParamsFn np;
};

FetClosures fet_closures(const device::Phemt& dev, const device::Bias& bias) {
  const device::IntrinsicParams ip = dev.small_signal(bias);
  const device::ExtrinsicParams ex = dev.extrinsics();
  const device::NoiseTemperatures nt = dev.temperatures();
  return {[ip, ex](double f) {
            return device::fet_y_params(ip, ex, f);
          },
          [ip, ex, nt](double f) {
            return device::pospieszalski_noise(ip, ex, nt, f);
          }};
}

}  // namespace

LnaDesign::LnaDesign(const device::Phemt& device, AmplifierConfig config,
                     DesignVector design)
    : device_(device), config_(std::move(config)), design_(design) {
  config_.resolve();
  bias_ = design_bias(device_, design_, config_);
}

circuit::Netlist LnaDesign::build_netlist() const {
  return build_netlist(nullptr);
}

circuit::Netlist LnaDesign::build_netlist(DesignBindings* bindings) const {
  using circuit::NodeId;
  DesignBindings b;
  circuit::Netlist nl;

  const NodeId n_in = nl.add_node("in");
  const NodeId n1 = nl.add_node("after_cin");
  const NodeId n_mid = nl.add_node("in_mid");
  const NodeId n2 = nl.add_node("gate");
  const NodeId n_g2 = nl.add_node("gate_bias");
  const NodeId n_s = nl.add_node("source");
  const NodeId n3 = nl.add_node("drain");
  const NodeId n5 = nl.add_node("out_match");
  const NodeId n6 = nl.add_node("out_match2");
  const NodeId n_out = nl.add_node("out");

  // --- Input DC block.
  if (config_.dispersive_passives) {
    b.cin = nl.add_lossy_impedance(
        n_in, n1, z_of(passives::make_capacitor(design_.c_in_f,
                                                config_.package)),
        config_.t_ambient_k, "Cin");
  } else {
    b.cin.element = nl.add_capacitor(n_in, n1, design_.c_in_f, "Cin");
  }

  // --- Input shunt inductor (single-stub element + gate DC return) at the
  // port side of the input line, through its RF-decoupled bias node.  The
  // stub must sit a line-length away from the gate — a shunt element AT
  // the load can never complete a single-stub match.
  if (config_.dispersive_passives) {
    b.lshunt = nl.add_lossy_impedance(
        n1, n_g2, z_of(passives::make_inductor(design_.l_shunt_h,
                                               config_.package)),
        config_.t_ambient_k, "Lshunt");
    nl.add_lossy_impedance(
        n_g2, circuit::kGround,
        z_of(passives::make_capacitor(config_.c_gate_dec_f, config_.package)),
        config_.t_ambient_k, "Cgdec");
  } else {
    b.lshunt.element = nl.add_inductor(n1, n_g2, design_.l_shunt_h, "Lshunt");
    nl.add_capacitor(n_g2, circuit::kGround, config_.c_gate_dec_f, "Cgdec");
  }
  nl.add_resistor(n_g2, circuit::kGround, config_.r_gate_bias,
                  config_.t_ambient_k, "Rgbias");

  // --- Input double-stub match: line 1, shunt C_mid, line 2 to the gate.
  b.tlin1 = circuit::add_passive_twoport(
      nl, n1, n_mid, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w50_m,
                              design_.l_in_m)),
      config_.t_ambient_k, "TLin1");
  if (config_.dispersive_passives) {
    b.cmid = nl.add_lossy_impedance(
        n_mid, circuit::kGround,
        z_of(passives::make_capacitor(design_.c_mid_f, config_.package)),
        config_.t_ambient_k, "Cmid");
  } else {
    b.cmid.element =
        nl.add_capacitor(n_mid, circuit::kGround, design_.c_mid_f, "Cmid");
  }
  b.tlin2 = circuit::add_passive_twoport(
      nl, n_mid, n2, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w50_m,
                              design_.l_in2_m)),
      config_.t_ambient_k, "TLin2");

  // --- The pHEMT with source degeneration.  The bias-dependent
  // small-signal extraction is hoisted into the closures (see
  // fet_closures); the Pospieszalski noise temperatures scale with the
  // ambient (first-order thermal model).
  FetClosures fet = fet_closures(adjusted_device(), device::Bias{design_.vgs,
                                                                 design_.vds});
  b.q1 = circuit::add_noisy_three_terminal(nl, n2, n3, n_s, std::move(fet.y),
                                           std::move(fet.np), "Q1");
  if (config_.dispersive_passives) {
    b.lsdeg = nl.add_lossy_impedance(
        n_s, circuit::kGround,
        z_of(passives::make_inductor(design_.l_sdeg_h, config_.package)),
        config_.t_ambient_k, "Lsdeg");
  } else {
    b.lsdeg.element =
        nl.add_inductor(n_s, circuit::kGround, design_.l_sdeg_h, "Lsdeg");
  }

  // --- Resistive shunt feedback drain -> gate (with its DC block).
  {
    const NodeId n_fb = nl.add_node("fb");
    b.rfb = nl.add_resistor(n3, n_fb, design_.r_fb_ohm, config_.t_ambient_k,
                            "Rfb");
    if (config_.dispersive_passives) {
      nl.add_lossy_impedance(
          n_fb, n2,
          z_of(passives::make_capacitor(kFeedbackBlockF, config_.package)),
          config_.t_ambient_k, "Cfb");
    } else {
      nl.add_capacitor(n_fb, n2, kFeedbackBlockF, "Cfb");
    }
  }

  // --- Drain bias tap: T-splitter, high-impedance line, decoupling, Rd.
  NodeId n4;  // drain-side node the output network continues from
  NodeId n_b; // branch node the bias line starts from
  if (config_.model_tee) {
    const microstrip::TeeJunction tee(config_.substrate, config_.w50_m,
                                      config_.w_bias_m);
    const NodeId nj = nl.add_node("tee");
    n4 = nl.add_node("after_tee");
    n_b = nl.add_node("bias_tap");
    b.ltee1 = nl.add_inductor(n3, nj, tee.arm_inductance_main(), "Ltee1");
    b.ltee2 = nl.add_inductor(nj, n4, tee.arm_inductance_main(), "Ltee2");
    b.ltee3 = nl.add_inductor(nj, n_b, tee.arm_inductance_branch(), "Ltee3");
    b.ctee = nl.add_capacitor(nj, circuit::kGround, tee.junction_capacitance(),
                              "Ctee");
    b.has_tee = true;
  } else {
    n4 = n3;
    n_b = n3;
  }
  const NodeId n_b2 = nl.add_node("bias_dec");
  b.tlbias = circuit::add_passive_twoport(
      nl, n_b, n_b2, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w_bias_m,
                              config_.l_bias_m)),
      config_.t_ambient_k, "TLbias");
  if (config_.dispersive_passives) {
    nl.add_lossy_impedance(
        n_b2, circuit::kGround,
        z_of(passives::make_capacitor(config_.c_dec_f, config_.package,
                                      passives::CapDielectric::kX7R)),
        config_.t_ambient_k, "Cdec");
  } else {
    nl.add_capacitor(n_b2, circuit::kGround, config_.c_dec_f, "Cdec");
  }
  // Vdd is RF ground: the drain resistor appears from the decoupled node
  // to ground and contributes its full thermal noise.
  b.rdrain = nl.add_resistor(n_b2, circuit::kGround, bias_.r_drain,
                             config_.t_ambient_k, "Rdrain");

  // --- Output match: line 1, shunt C, line 2, DC block.
  b.tlout1 = circuit::add_passive_twoport(
      nl, n4, n5, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w50_m,
                              design_.l_out_m)),
      config_.t_ambient_k, "TLout1");
  if (config_.dispersive_passives) {
    b.coutsh = nl.add_lossy_impedance(
        n5, circuit::kGround,
        z_of(passives::make_capacitor(design_.c_out_sh_f, config_.package)),
        config_.t_ambient_k, "Coutsh");
  } else {
    b.coutsh.element =
        nl.add_capacitor(n5, circuit::kGround, design_.c_out_sh_f, "Coutsh");
  }
  b.tlout2 = circuit::add_passive_twoport(
      nl, n5, n6, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w50_m,
                              design_.l_out2_m)),
      config_.t_ambient_k, "TLout2");
  if (config_.dispersive_passives) {
    nl.add_lossy_impedance(
        n6, n_out, z_of(passives::make_capacitor(kOutputBlockF,
                                                 config_.package)),
        config_.t_ambient_k, "Cblk");
  } else {
    nl.add_capacitor(n6, n_out, kOutputBlockF, "Cblk");
  }

  nl.add_port(n_in, rf::kZ0, "RFin");
  nl.add_port(n_out, rf::kZ0, "RFout");
  if (bindings) *bindings = b;
  return nl;
}

device::Phemt LnaDesign::adjusted_device() const {
  device::Phemt dev = device_;
  if (config_.t_ambient_k != 290.0) {
    const double scale = config_.t_ambient_k / 290.0;
    device::NoiseTemperatures t = dev.temperatures();
    t.tg_k *= scale;
    t.td_k *= scale;
    dev = device::Phemt(dev.iv_model().clone(), dev.caps(), dev.extrinsics(),
                        t);
  }
  return dev;
}

rf::SParams LnaDesign::s_params(double frequency_hz) const {
  return circuit::s_params(build_netlist(), frequency_hz);
}

rf::SweepData LnaDesign::s_sweep(const std::vector<double>& frequencies_hz,
                                 std::size_t threads) const {
  return circuit::s_sweep(build_netlist(), frequencies_hz, threads);
}

double LnaDesign::noise_figure_db(double frequency_hz) const {
  return circuit::noise_analysis(build_netlist(), 0, 1, frequency_hz)
      .noise_figure_db;
}

std::vector<double> LnaDesign::default_band() {
  return rf::linear_grid(rf::kGnssBandLowHz, rf::kGnssBandHighHz, 7);
}

std::vector<double> LnaDesign::stability_grid() {
  return rf::linear_grid(0.5e9, 3.5e9, 9);
}

void reduce_band_report(const circuit::BatchedPlan& plan,
                        std::span<const circuit::EvalWorkspace> chunks,
                        const circuit::NoiseResult* noise,
                        std::span<const LaneRange> bands,
                        std::size_t stability_begin, double id_a,
                        std::span<BandReport> reports) {
  const auto s_at = [&](std::size_t fi) {
    // Chunks tile the grid from lane 0: the first one ending past fi
    // holds it.
    for (const circuit::EvalWorkspace& ws : chunks) {
      if (fi < ws.f_end()) return plan.s_params_at(ws, fi);
    }
    throw std::logic_error("reduce_band_report: chunks do not cover grid");
  };
  double mu_min = 1e9;
  for (std::size_t fi = stability_begin; fi < plan.size(); ++fi) {
    const rf::SParams s = s_at(fi);
    mu_min = std::min(mu_min, std::min(rf::mu_source(s), rf::mu_load(s)));
  }
  for (std::size_t k = 0; k < bands.size(); ++k) {
    BandReport& rep = reports[k];
    rep.id_a = id_a;
    double nf_sum = 0.0, gt_sum = 0.0;
    rep.nf_max_db = -1e9;
    rep.gt_min_db = 1e9;
    rep.s11_worst_db = -1e9;
    rep.s22_worst_db = -1e9;
    for (std::size_t fi = bands[k].begin; fi < bands[k].end; ++fi) {
      const rf::SParams s = s_at(fi);
      const double nf_db = noise[fi].noise_figure_db;
      const double gt = rf::db20(s.s21);
      nf_sum += nf_db;
      gt_sum += gt;
      rep.nf_max_db = std::max(rep.nf_max_db, nf_db);
      rep.gt_min_db = std::min(rep.gt_min_db, gt);
      rep.s11_worst_db = std::max(rep.s11_worst_db, rf::db20(s.s11));
      rep.s22_worst_db = std::max(rep.s22_worst_db, rf::db20(s.s22));
    }
    const double points = static_cast<double>(bands[k].end - bands[k].begin);
    rep.nf_avg_db = nf_sum / points;
    rep.gt_avg_db = gt_sum / points;
    rep.mu_min = mu_min;
  }
}

void band_pass(const circuit::BatchedPlan& plan, circuit::EvalWorkspace& ws,
               circuit::NoiseResult* noise, std::size_t stability_begin,
               std::span<const LaneRange> bands, double id_a,
               std::span<BandReport> reports) {
  plan.factor(ws, 0, plan.size());
  plan.solve_ports(ws);
  plan.solve_output_transfer(ws, 1, 0, stability_begin);
  plan.noise_sweep(ws, 0, 1, noise);
  reduce_band_report(plan, {&ws, 1}, noise, bands, stability_begin, id_a,
                     reports);
}

BandReport LnaDesign::evaluate(const std::vector<double>& band_hz,
                               std::size_t threads) const {
  GNSSLNA_OBS_SPAN("amplifier.lna_evaluate");
  GNSSLNA_OBS_COUNT("amplifier.band_evaluations");
  std::vector<double> grid = band_hz;
  const std::vector<double> mu_grid = stability_grid();
  grid.insert(grid.end(), mu_grid.begin(), mu_grid.end());
  const circuit::BatchedPlan plan(build_netlist(), std::move(grid));
  const std::size_t nf = plan.size();
  const std::size_t band_points = band_hz.size();
  const std::size_t nchunks = std::min(numeric::resolve_threads(threads), nf);
  std::vector<circuit::EvalWorkspace> workspaces(nchunks);
  std::vector<circuit::NoiseResult> noise(band_points);
  // Per-lane results never depend on which chunk a lane landed in (the
  // batched kernels are lane-independent), so any chunk count produces
  // the same lanes — reduced in grid order afterwards.
  const auto run_chunk = [&](std::size_t c) {
    const circuit::ChunkRange r = circuit::chunk_range(c, nchunks, nf);
    circuit::EvalWorkspace& ws = workspaces[c];
    plan.factor(ws, r.begin, r.end);
    plan.solve_ports(ws);
    // Noise is only priced in-band, so the transfer solve covers just the
    // band lanes of this chunk (identical bits: lanes are independent).
    if (r.begin < band_points) {
      plan.solve_output_transfer(ws, 1, r.begin,
                                 std::min(r.end, band_points));
      plan.noise_sweep(ws, 0, 1, noise.data() + r.begin);
    }
  };
  if (nchunks == 1) {
    run_chunk(0);
  } else {
    numeric::parallel_for(threads, nchunks, run_chunk);
  }
  const LaneRange band{0, band_points};
  BandReport report;
  reduce_band_report(plan, workspaces, noise.data(), {&band, 1}, band_points,
                     bias_.id_a, {&report, 1});
  return report;
}

BandEvaluator::BandEvaluator(const device::Phemt& device,
                             AmplifierConfig config,
                             std::vector<double> band_hz,
                             std::vector<LaneRange> ranges)
    : device_(device),
      config_(std::move(config)),
      band_hz_(band_hz.empty() ? LnaDesign::default_band()
                               : std::move(band_hz)),
      ranges_(ranges.empty() ? std::vector<LaneRange>{{0, band_hz_.size()}}
                             : std::move(ranges)),
      noise_buf_(band_hz_.size()) {
  for (const LaneRange& r : ranges_) {
    if (r.begin >= r.end || r.end > band_hz_.size()) {
      throw std::invalid_argument(
          "BandEvaluator: lane range empty or outside the band");
    }
  }
  config_.resolve();
}

void BandEvaluator::evaluate(const DesignVector& design,
                             std::span<BandReport> reports) {
  if (reports.size() != ranges_.size()) {
    throw std::invalid_argument("BandEvaluator: one report per lane range");
  }
  GNSSLNA_OBS_SPAN("amplifier.band_evaluate");
  GNSSLNA_OBS_COUNT("amplifier.band_evaluations");
  if (built_) {
    retabulate(design);
  } else {
    build(design);
  }
  band_pass(bplan_, workspace_, noise_buf_.data(), band_hz_.size(), ranges_,
            bias_.id_a, reports);
}

BandReport BandEvaluator::evaluate(const DesignVector& design) {
  BandReport report;
  evaluate(design, {&report, 1});
  return report;
}

void BandEvaluator::build(const DesignVector& design) {
  // Cold build: closures, tabulation, and workspace blocks allocate freely
  // here; every subsequent call is allocation-free.  The direct-
  // retabulation writers used by retabulate() live in
  // amplifier/plan_writers.h (namespace planw), shared with the yield
  // engine's per-trial evaluator.
  const LnaDesign lna(device_, config_, design);
  DesignBindings bindings;
  const circuit::Netlist nl = lna.build_netlist(&bindings);
  std::vector<double> grid = band_hz_;
  const std::vector<double> mu_grid = LnaDesign::stability_grid();
  grid.insert(grid.end(), mu_grid.begin(), mu_grid.end());
  circuit::BatchedPlan plan(nl, std::move(grid));
  // Length-independent w50 dispersion table shared by all four matching
  // lines (the length is applied per element in write_line).
  const microstrip::Line w50_probe(config_.substrate, config_.w50_m, 1e-3);
  std::vector<microstrip::Line::Propagation> prop(plan.grid().size());
  for (std::size_t fi = 0; fi < prop.size(); ++fi) {
    prop[fi] = w50_probe.propagation(plan.grid()[fi]);
  }
  std::vector<passives::FrequencyFactors> freq =
      planw::frequency_table(plan.grid());
  // Commit to the members only once everything built, so a throwing
  // design leaves the evaluator reusable.
  bplan_ = std::move(plan);
  w50_prop_ = std::move(prop);
  freq_ = std::move(freq);
  bindings_ = bindings;
  bias_ = lna.bias();
  nt_adj_ = device_.temperatures();
  if (config_.t_ambient_k != 290.0) {
    const double scale = config_.t_ambient_k / 290.0;
    nt_adj_.tg_k *= scale;
    nt_adj_.td_k *= scale;
  }
  last_ = design;
  built_ = true;
  last_retabulated_ = 0;
}

void BandEvaluator::retabulate(const DesignVector& design) {
  const bool all = force_full_retab_;
  // An element whose governing parameter did not move already holds
  // exactly the values this design would tabulate (the writers are pure
  // functions of the parameter), so its tables are left untouched.
  const auto changed = [&](double DesignVector::* m) {
    return all || last_.*m != design.*m;
  };
  const bool bias_changed =
      changed(&DesignVector::vgs) || changed(&DesignVector::vds);
  // Bias first: design_bias rejects infeasible operating points BEFORE
  // any table is touched, leaving the evaluator reusable (like the cold
  // build, whose LnaDesign constructor throws before anything commits).
  BiasNetwork bias = bias_;
  if (bias_changed) bias = design_bias(device_, design, config_);

  const bool any =
      all || bias_changed || changed(&DesignVector::c_in_f) ||
      changed(&DesignVector::l_shunt_h) || changed(&DesignVector::c_mid_f) ||
      changed(&DesignVector::l_sdeg_h) || changed(&DesignVector::c_out_sh_f) ||
      changed(&DesignVector::r_fb_ohm) || changed(&DesignVector::l_in_m) ||
      changed(&DesignVector::l_in2_m) || changed(&DesignVector::l_out_m) ||
      changed(&DesignVector::l_out2_m);
  if (!any) {
    last_retabulated_ = 0;
    return;  // tables and cached factorization both still valid
  }

  // Every design-bound element contributes to the admittance matrix, so
  // any rewrite below invalidates cached factorizations.  Dirty first —
  // and force a full rewrite on the next call if a writer throws halfway,
  // since the tables may then mix two designs.
  bplan_.mark_values_dirty();
  force_full_retab_ = true;
  std::size_t retabulated = 0;
  const double t = config_.t_ambient_k;
  // Noise is priced on the in-band lanes only, so the stability lanes'
  // noise CSDs are never read and never rewritten.
  const std::size_t nb = band_hz_.size();
  if (config_.dispersive_passives) {
    if (changed(&DesignVector::c_in_f)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.cin,
          passives::make_capacitor(design.c_in_f, config_.package), freq_,
          t, nb);
    }
    if (changed(&DesignVector::l_shunt_h)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.lshunt,
          passives::make_inductor(design.l_shunt_h, config_.package), freq_,
          t, nb);
    }
    if (changed(&DesignVector::c_mid_f)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.cmid,
          passives::make_capacitor(design.c_mid_f, config_.package), freq_,
          t, nb);
    }
    if (changed(&DesignVector::l_sdeg_h)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.lsdeg,
          passives::make_inductor(design.l_sdeg_h, config_.package), freq_,
          t, nb);
    }
    if (changed(&DesignVector::c_out_sh_f)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.coutsh,
          passives::make_capacitor(design.c_out_sh_f, config_.package), freq_,
          t, nb);
    }
  } else {
    if (changed(&DesignVector::c_in_f)) {
      retabulated += planw::write_capacitor(bplan_, bindings_.cin.element,
                                     design.c_in_f);
    }
    if (changed(&DesignVector::l_shunt_h)) {
      retabulated += planw::write_inductor(bplan_, bindings_.lshunt.element,
                                    design.l_shunt_h);
    }
    if (changed(&DesignVector::c_mid_f)) {
      retabulated += planw::write_capacitor(bplan_, bindings_.cmid.element,
                                     design.c_mid_f);
    }
    if (changed(&DesignVector::l_sdeg_h)) {
      retabulated += planw::write_inductor(bplan_, bindings_.lsdeg.element,
                                    design.l_sdeg_h);
    }
    if (changed(&DesignVector::c_out_sh_f)) {
      retabulated += planw::write_capacitor(bplan_, bindings_.coutsh.element,
                                     design.c_out_sh_f);
    }
  }
  if (changed(&DesignVector::r_fb_ohm)) {
    retabulated += planw::write_resistor(bplan_, bindings_.rfb, design.r_fb_ohm,
                                         t, nb);
  }
  if (bias_changed) {
    retabulated += planw::write_resistor(bplan_, bindings_.rdrain, bias.r_drain,
                                         t, nb);
  }
  if (changed(&DesignVector::l_in_m)) {
    retabulated += planw::write_line(bplan_, bindings_.tlin1,
                                     design.l_in_m, w50_prop_, t, nb);
  }
  if (changed(&DesignVector::l_in2_m)) {
    retabulated += planw::write_line(bplan_, bindings_.tlin2,
                                     design.l_in2_m, w50_prop_, t, nb);
  }
  if (changed(&DesignVector::l_out_m)) {
    retabulated += planw::write_line(bplan_, bindings_.tlout1,
                                     design.l_out_m, w50_prop_, t, nb);
  }
  if (changed(&DesignVector::l_out2_m)) {
    retabulated += planw::write_line(bplan_, bindings_.tlout2,
                                     design.l_out2_m, w50_prop_, t, nb);
  }
  if (bias_changed) {
    // Same hoisting as fet_closures: the small-signal extraction is a
    // pure function of the bias (and temperature-independent, so the
    // ambient-adjusted device of build_netlist yields identical values).
    const device::IntrinsicParams ip =
        device_.small_signal(device::Bias{design.vgs, design.vds});
    retabulated += planw::write_fet(bplan_, bindings_.q1, ip, device_.extrinsics(),
                             nt_adj_, nb);
  }
  force_full_retab_ = false;
  bias_ = bias;
  last_ = design;
  last_retabulated_ = retabulated;
}

}  // namespace gnsslna::amplifier
