// LNA circuit assembly and band evaluation.
//
// LnaDesign turns (device, config, design vector) into a circuit::Netlist
// with every physical effect the paper insists on: dispersive chip
// passives (Q/ESR/SRF), lossy dispersive microstrip lines, the bias-tee
// T-splitter parasitics, the drain/gate bias resistors with their thermal
// noise, and the Pospieszalski device noise — then evaluates S-parameters,
// noise figure, stability, and DC current over the GNSS band.
#pragma once

#include <span>

#include "amplifier/topology.h"
#include "circuit/analysis.h"
#include "circuit/batched.h"

namespace gnsslna::amplifier {

/// Aggregate band figures the optimizer and the benches consume.
struct BandReport {
  double nf_avg_db = 0.0;    ///< band-average noise figure
  double nf_max_db = 0.0;    ///< worst in-band noise figure
  double gt_min_db = 0.0;    ///< worst in-band transducer gain (50-ohm)
  double gt_avg_db = 0.0;
  double s11_worst_db = 0.0; ///< worst (largest) in-band |S11|
  double s22_worst_db = 0.0;
  double mu_min = 0.0;       ///< minimum Edwards-Sinsky mu over the
                             ///< stability grid (in-band + out-of-band)
  double id_a = 0.0;         ///< DC drain current
};

/// Contiguous in-band lane range [begin, end) of a band evaluation grid:
/// the lanes one BandReport's in-band figures are reduced from.
struct LaneRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Reduces reports[k] from a factored, port-solved batched plan whose grid
/// is the in-band lanes [0, stability_begin) followed by the stability
/// grid: report k's in-band figures come from lanes bands[k] (inside
/// [0, stability_begin)), and every report carries the one mu_min of the
/// stability lanes.  `chunks` are the workspaces that cover the grid in
/// contiguous lane order (a single one on the serial paths); noise[fi] is
/// lane fi's noise result for every in-band lane.  The accumulation runs
/// serially in grid order, so the reports are bit-identical however the
/// lanes were chunked.  The one reduction behind every band report:
/// LnaDesign::evaluate, BandEvaluator and the yield engine's trials.
void reduce_band_report(const circuit::BatchedPlan& plan,
                        std::span<const circuit::EvalWorkspace> chunks,
                        const circuit::NoiseResult* noise,
                        std::span<const LaneRange> bands,
                        std::size_t stability_begin, double id_a,
                        std::span<BandReport> reports);

/// The serial band pass over the whole grid of `plan` (in-band lanes
/// [0, stability_begin), then the stability grid): factors `ws`, solves the
/// ports, runs one output-transfer solve and one noise sweep over the
/// in-band lanes (writing noise[0, stability_begin)), and reduces
/// reports[k] from lanes bands[k] (reduce_band_report).  Shared by
/// BandEvaluator and the yield engine's trials.
void band_pass(const circuit::BatchedPlan& plan, circuit::EvalWorkspace& ws,
               circuit::NoiseResult* noise, std::size_t stability_begin,
               std::span<const LaneRange> bands, double id_a,
               std::span<BandReport> reports);

/// Handles to the elements of an LNA netlist that depend on the design
/// vector (or its derived bias network): their indices address the value
/// tables of a circuit::BatchedPlan compiled from that netlist, which the
/// direct writers in plan_writers.h re-tabulate in place.  Everything else
/// — decoupling, bias line, tee parasitics, blocking caps — is fixed by
/// the config, so a design step never re-tabulates it.
///
/// The yield engine additionally perturbs the SUBSTRATE (epsilon_r,
/// height), which reaches elements a design step never moves: the
/// high-impedance bias line and the tee-junction parasitics.  Their
/// handles are carried here too so a tolerance trial can re-tabulate them
/// in place; optimizer loops (fixed board) simply never touch them.
struct DesignBindings {
  circuit::ElementRef cin, lshunt, cmid, lsdeg, rfb, coutsh, rdrain;
  circuit::ElementRef tlin1, tlin2, tlout1, tlout2;
  circuit::ElementRef q1;
  // Substrate-dependent fixed elements (see above).  The tee handles are
  // only meaningful when `has_tee` (config.model_tee).
  circuit::ElementRef tlbias;
  circuit::ElementId ltee1, ltee2, ltee3, ctee;
  bool has_tee = false;
};

class LnaDesign {
 public:
  /// The config is resolved (w50 synthesized) on construction.
  LnaDesign(const device::Phemt& device, AmplifierConfig config,
            DesignVector design);

  /// Builds a fresh netlist (cheap; closures only).
  circuit::Netlist build_netlist() const;

  /// Like build_netlist(), also returning handles to the design-dependent
  /// elements (see DesignBindings).
  circuit::Netlist build_netlist(DesignBindings* bindings) const;

  /// Two-port S-parameters at a frequency.
  rf::SParams s_params(double frequency_hz) const;

  /// Swept S-parameters.  Frequency points fan out across `threads`
  /// (0 = hardware_concurrency, 1 = serial); bit-identical for any count.
  rf::SweepData s_sweep(const std::vector<double>& frequencies_hz,
                        std::size_t threads = 1) const;

  /// Spot noise figure [dB].
  double noise_figure_db(double frequency_hz) const;

  /// Band evaluation over the given in-band grid; stability is also
  /// checked on an extended grid (0.5-3.5 GHz).  One transient batched
  /// plan covers both grids; its lanes are split into contiguous chunks
  /// (one EvalWorkspace each) that fan out across `threads`.  Chunk
  /// boundaries depend only on the thread count, per-lane results are
  /// independent of chunking, and the report is reduced in grid order, so
  /// it is bit-identical for any thread count.
  BandReport evaluate(const std::vector<double>& band_hz,
                      std::size_t threads = 1) const;

  /// Default 7-point evaluation grid across 1.1-1.7 GHz.
  static std::vector<double> default_band();

  /// Extended 0.5-3.5 GHz grid the mu stability check runs on.
  static std::vector<double> stability_grid();

  const DesignVector& design() const { return design_; }
  const AmplifierConfig& config() const { return config_; }
  const device::Phemt& device() const { return device_; }
  const BiasNetwork& bias() const { return bias_; }

 private:
  device::Phemt adjusted_device() const;

  device::Phemt device_;
  AmplifierConfig config_;
  DesignVector design_;
  BiasNetwork bias_;
};

/// Reusable band evaluator for optimizer loops: keeps one batched
/// evaluation plan alive across design points and writes only the value
/// tables the design step moved straight into it (no closures, no
/// Netlist) — fixed elements (and their dispersion curves) are tabulated
/// once for the whole run.  After the first call the steady state performs
/// ZERO heap allocations (pinned by tests/test_alloc_free.cpp and the bench
/// allocs_per_op counter).
///
/// One evaluation can price several bands at once: the in-band grid is the
/// concatenation of their points, and each report is reduced from its own
/// lane range of the one factored plan (mission::ScenarioObjective prices
/// the full band and every constellation sub-band this way).  Each report
/// is bit-identical to LnaDesign::evaluate() over that range's points.
///
/// NOT thread-safe: hold one instance per thread (see
/// objectives.cpp::ReportCache).
class BandEvaluator {
 public:
  /// Band defaults to LnaDesign::default_band() when empty.  `ranges` are
  /// the in-band lane ranges reduced to one report each (non-empty,
  /// inside band_hz); empty means one report over the whole band.
  BandEvaluator(const device::Phemt& device, AmplifierConfig config,
                std::vector<double> band_hz = {},
                std::vector<LaneRange> ranges = {});

  /// Evaluates one design point and writes reports[k] for the k-th lane
  /// range (one report per range, else std::invalid_argument).  Throws
  /// like LnaDesign for infeasible designs (bias unreachable etc.); the
  /// evaluator stays usable.
  void evaluate(const DesignVector& design, std::span<BandReport> reports);

  /// evaluate() of a single-range evaluator (the default): the report
  /// over the whole band.
  BandReport evaluate(const DesignVector& design);

  /// Element/noise tables refreshed by the last evaluate() (diagnostics
  /// and cache-invalidation tests): one per value table (stamp, two-port,
  /// or noise CSD) rewritten, 0 for the cold build and an unchanged
  /// design.
  std::size_t last_retabulated() const { return last_retabulated_; }

  /// Arena high-water mark of the persistent batched workspace [bytes];
  /// pinned by the zero-allocation test so silent workspace growth fails
  /// CI.
  std::size_t workspace_high_water() const {
    return workspace_.arena_high_water();
  }

 private:
  void build(const DesignVector& design);
  void retabulate(const DesignVector& design);

  device::Phemt device_;
  AmplifierConfig config_;
  std::vector<double> band_hz_;
  std::vector<LaneRange> ranges_;
  bool built_ = false;
  DesignVector last_;  ///< design the plan is currently bound to
  std::size_t last_retabulated_ = 0;

  // Values are written through the plan's table views, so no netlist is
  // retained — only the element handles.
  DesignBindings bindings_;
  circuit::BatchedPlan bplan_;
  circuit::EvalWorkspace workspace_;
  /// Dispersion curve of a w50-wide line over the plan grid, cached at
  /// build time: propagation data depend on (substrate, width, f) only,
  /// so every design-vector line length reuses this table
  /// (abcd_from(propagation(f)) == abcd(f) bit-for-bit).
  std::vector<microstrip::Line::Propagation> w50_prop_;
  /// Per-in-band-lane noise results from the batched sweep.
  std::vector<circuit::NoiseResult> noise_buf_;
  BiasNetwork bias_;                  ///< bias for `last_` (id_a, r_drain)
  device::NoiseTemperatures nt_adj_;  ///< ambient-scaled FET temperatures
  bool force_full_retab_ = false;  ///< a write threw mid-retabulation; the
                                   ///< tables may be mixed, rewrite all
};

}  // namespace gnsslna::amplifier
