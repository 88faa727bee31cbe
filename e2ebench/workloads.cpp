// The four benchmark workloads.  Each one makes its inputs from the seed,
// sets up several times (setup_s is the median), measures for the given
// seconds, and checks its outputs; a wrong output is a failed operation.
//
// With --trace 1 a workload first runs untraced for half the time, then
// traced (obs enabled + span capture) for the other half: the per-layer
// metrics come from the traced half, obs.trace_overhead_ratio compares
// the two halves, and outputs must agree between them.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "amplifier/design_flow.h"
#include "amplifier/yield.h"
#include "bench.h"
#include "extract/measurement.h"
#include "extract/three_step.h"
#include "lab/measure.h"
#include "mission/objective.h"
#include "mission/scenario.h"
#include "numeric/rng.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/jobs.h"
#include "service/json.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"

namespace e2ebench {
namespace {

using namespace gnsslna;
using service::Json;

constexpr int kSetupRepeats = 15;

/// Optimizer seed of the design stages (the repository's Table IV seed).
/// The optimizers' path length depends on their seed by +-15%, which would
/// swamp the effect of any optimization across benchmark seeds, so the
/// benchmark seed drives the workload inputs and this one stays fixed.
constexpr std::uint64_t kOptimizerSeed = 54143;

std::string fmt(const char* f, double a) {
  char buf[96];
  std::snprintf(buf, sizeof buf, f, a);
  return buf;
}

/// Median of kSetupRepeats set-ups; keeps the last instance.
template <class T, class Make>
std::unique_ptr<T> timed_setup(Make&& make, double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<T> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    state = make();
    times.push_back(seconds_since(t0));
  }
  *setup_s = median(times);
  return state;
}

/// Runs `rep` back to back until the next one would overrun `seconds`
/// (at least `min_reps`); returns each repetition's wall time [s].
/// `after` runs untimed after each repetition.
template <class Rep, class After = void (*)()>
std::vector<double> repeat_for(double seconds, std::size_t min_reps, Rep&& rep,
                               After&& after = [] {}) {
  std::vector<double> times;
  const auto t0 = Clock::now();
  while (times.size() < min_reps ||
         seconds_since(t0) + times.back() <= seconds) {
    const auto t = Clock::now();
    rep(times.size());
    times.push_back(seconds_since(t));
    after();
  }
  return times;
}

/// Enables obs and span capture for a traced phase; restores the runtime
/// default afterwards.
class TracedPhase {
 public:
  TracedPhase() : was_enabled_(obs::enabled()) {
    obs::set_enabled(true);
    obs::clear_span_capture();
    obs::start_span_capture();
  }
  ~TracedPhase() {
    obs::stop_span_capture();
    obs::set_enabled(was_enabled_);
  }
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;

 private:
  bool was_enabled_;
};

double incl_us(const SpanTable& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.incl_ns / 1e3;
}
double self_us(const SpanTable& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.self_ns / 1e3;
}
double span_count(const SpanTable& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : static_cast<double>(it->second.count);
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Counter work of a phase: obs::counter_delta of two snapshots.
using CounterWork = std::vector<obs::CounterValue>;

double counted(const CounterWork& work, const char* name) {
  for (const obs::CounterValue& c : work) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

/// One report line per captured span name: where the traced time went.
void report_spans(const SpanTable& spans, double reps, RunResult* r) {
  for (const auto& [name, t] : spans) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "span %-28s count %12.1f  incl %12.3f ms  self %12.3f ms",
                  name.c_str(), static_cast<double>(t.count) / reps,
                  t.incl_ns / 1e6 / reps, t.self_ns / 1e6 / reps);
    r->report.push_back(buf);
  }
}

/// Layer numbers shared by the compute workloads, per repetition.
void compute_layers(const SpanTable& spans, const CounterWork& work,
                    double reps, RunResult* r) {
  const double evals = counted(work, "amplifier.band_evaluations");
  const double hits = counted(work, "amplifier.report_cache.hits");
  const double misses = counted(work, "amplifier.report_cache.misses");
  r->values["amplifier.band_evals"] = evals / reps;
  r->values["amplifier.band_eval_us"] =
      ratio(incl_us(spans, "amplifier.band_evaluate"),
            span_count(spans, "amplifier.band_evaluate"));
  r->values["amplifier.report_cache.hit_ratio"] = ratio(hits, hits + misses);
  // Batched solve calls (one LU pass over a plan's lanes); the program's
  // counter of the same name counts lanes.
  r->values["circuit.batch.solves"] = span_count(spans, "circuit.batch.solve") / reps;
  r->values["circuit.batch.solve_us"] =
      ratio(incl_us(spans, "circuit.batch.solve"),
            span_count(spans, "circuit.batch.solve"));
}

/// Sum of every captured span's self time [s]: the time the named layers
/// explain on a serial workload.
double total_self_s(const SpanTable& spans) {
  double ns = 0.0;
  for (const auto& [name, t] : spans) ns += t.self_ns;
  return ns / 1e9;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Shared runner of the two serial flows.  `once(traced, &problems)` runs
/// the flow and returns the digest of its outputs, which must not change
/// between repetitions (traced or not); `layers` adds the flow's own layer
/// numbers, per repetition, from the traced half.
template <class Once, class Layers>
RunResult run_serial(const Options& opt, const char* name, double setup_s,
                     Once&& once, Layers&& layers) {
  RunResult r;
  std::string reference;
  bool traced = false;
  auto rep = [&](std::size_t) {
    std::vector<std::string> problems;
    const std::string d = once(traced, &problems);
    ++r.attempted;
    if (reference.empty()) reference = d;
    if (d != reference) problems.push_back("output differs between repetitions");
    if (!problems.empty()) r.fail(problems.front());
  };

  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::vector<double> times = repeat_for(window, 2, rep);
  const double slowest = *std::max_element(times.begin(), times.end());
  r.report.push_back(std::string(name) + "=" + fmt("%.4f", median(times)) +
                     " s reps=" + std::to_string(times.size()) +
                     " latency_tail_ms=max of " +
                     std::to_string(times.size()) + " reps");
  if (!opt.trace) {
    r.digest = reference;
    r.values["setup_s"] = setup_s;
    r.values["peak_rss_mb"] = peak_rss_mb();
    r.values["latency_p50_ms"] = median(times) * 1e3;
    // A 30 s window holds 10-20 repetitions of 1.5-3 s, too few for a
    // percentile with ten samples beyond it: the tail is the slowest one.
    r.values["latency_tail_ms"] = slowest * 1e3;
    return r;
  }

  // Traced half: capture one repetition at a time so the capture buffer
  // stays small.
  SpanTable spans;
  std::vector<double> traced_times;
  const CounterWork before = obs::counter_snapshot();
  traced = true;
  {
    const TracedPhase phase;
    traced_times = repeat_for(window, 1, rep, [&] {
      drain_span_capture(opt.scratch_dir, &spans);
    });
  }
  const CounterWork work = obs::counter_delta(obs::counter_snapshot(), before);
  r.digest = reference;
  const double reps = static_cast<double>(traced_times.size());
  report_spans(spans, reps, &r);
  compute_layers(spans, work, reps, &r);
  layers(spans, work, reps, &r);
  r.values["accounted_fraction"] = total_self_s(spans) / sum(traced_times);
  r.values["obs.trace_overhead_ratio"] = median(traced_times) / median(times);
  return r;
}

// ===========================================================================
// paper_pipeline: extract -> design -> snap -> measure -> yield, serial.

struct PipelineSizes {
  std::size_t n_freq = 12;
  std::size_t extract_generations = 40;
  std::size_t extract_population = 24;
  std::size_t design_generations = 150;  ///< the flow's defaults
  std::size_t design_polish = 8000;
  std::size_t yield_samples = 16384;
};

struct PipelineState {
  device::Phemt device = device::Phemt::reference_device();
  extract::MeasurementSet data;
  std::uint64_t seed = 0;
};

std::unique_ptr<PipelineState> setup_pipeline(std::uint64_t seed,
                                              const PipelineSizes& sz) {
  auto s = std::make_unique<PipelineState>();
  s->seed = seed;
  numeric::Rng mrng = numeric::Rng(seed).split(0);
  s->data = extract::synthesize_measurements(
      s->device, extract::MeasurementPlan::standard_plan(sz.n_freq),
      extract::MeasurementNoise{}, mrng);
  // Plan warm-up: one band evaluation builds the lazy device/dispersion
  // tables every later stage uses.
  amplifier::BandEvaluator warm(s->device, amplifier::AmplifierConfig{});
  warm.evaluate(amplifier::DesignVector{});
  return s;
}

/// One pass of the paper flow; returns the digest of everything it
/// produced and appends any failed sanity check to `problems`.
std::string pipeline_once(const PipelineState& s, const PipelineSizes& sz,
                          std::vector<std::string>* problems,
                          std::uint64_t* extract_evals = nullptr) {
  const numeric::Rng root(s.seed);
  Digest digest;

  std::unique_ptr<device::FetModel> prototype = device::make_model("angelov");
  extract::ThreeStepOptions xopt;
  xopt.threads = 1;
  xopt.de_generations = sz.extract_generations;
  xopt.de_population = sz.extract_population;
  numeric::Rng xrng = numeric::Rng(kOptimizerSeed).split(1);
  extract::ExtractionResult fit;
  {
    GNSSLNA_OBS_SPAN("e2e.extract");
    fit = extract::three_step_extract(*prototype, s.data,
                                      s.device.extrinsics(), xrng, xopt);
  }
  if (extract_evals) *extract_evals += fit.evaluations;
  digest.add(fit.params);
  if (!std::isfinite(fit.error.rms_s) || fit.error.rms_s > 0.1) {
    problems->push_back("extraction fit error " + fmt("%g", fit.error.rms_s));
  }

  amplifier::AmplifierConfig config;
  amplifier::DesignFlowOptions dopt;
  dopt.optimizer.threads = 1;
  dopt.optimizer.de_generations = sz.design_generations;
  dopt.optimizer.polish_evaluations = sz.design_polish;
  numeric::Rng drng = numeric::Rng(kOptimizerSeed).split(2);
  amplifier::DesignOutcome design;
  {
    GNSSLNA_OBS_SPAN("e2e.design");
    design = amplifier::run_design_flow(s.device, config, drng, dopt);
  }
  amplifier::DesignVector snapped;
  {
    GNSSLNA_OBS_SPAN("e2e.snap");
    snapped = amplifier::snap_design(design.continuous);
  }
  digest.add(snapped.to_vector());
  digest.add(design.optimization.attainment);
  digest.add(design.snapped_report.nf_avg_db);
  digest.add(design.snapped_report.gt_min_db);
  if (snapped.to_vector() != design.snapped.to_vector()) {
    problems->push_back("snap_design disagrees with the flow's snapped design");
  }
  if (!std::isfinite(design.optimization.attainment) ||
      !(design.snapped_report.nf_avg_db > 0.0 &&
        design.snapped_report.nf_avg_db < 5.0)) {
    problems->push_back("design outcome out of range");
  }

  lab::LabOptions lopt;
  lopt.fabrication.seed = root.split(3).next_u64();
  lab::MeasuredDesignReport meas;
  {
    GNSSLNA_OBS_SPAN("e2e.lab");
    meas = lab::measure_design(s.device, config, design, lopt);
  }
  digest.add(meas.nf_meas_avg_db);
  digest.add(meas.gain_meas_avg_db);
  digest.add(meas.im3.oip3_dbm);
  digest.add(meas.touchstone);
  if (!std::isfinite(meas.nf_meas_avg_db) ||
      std::fabs(meas.nf_meas_avg_db - meas.nf_sim_avg_db) > 1.0 ||
      !(meas.corrected_rms_error < meas.raw_rms_error)) {
    problems->push_back("lab measurement disagrees with simulation");
  }

  amplifier::YieldOptions yopt;
  yopt.threads = 1;
  yopt.sampler = amplifier::YieldSampler::kSobol;
  numeric::Rng yrng = root.split(4);
  amplifier::YieldReport y;
  {
    GNSSLNA_OBS_SPAN("e2e.yield");
    y = amplifier::run_yield(s.device, config, snapped, dopt.goals,
                             sz.yield_samples, yrng, yopt);
  }
  for (const double v :
       {static_cast<double>(y.samples), static_cast<double>(y.passes),
        static_cast<double>(y.failed_evals), y.pass_rate, y.pass_rate_ci95_lo,
        y.pass_rate_ci95_hi, y.nf_avg_p95_db, y.gt_min_p5_db,
        y.nf_avg_mean_db, y.gt_min_mean_db, y.nf_avg_min_db, y.nf_avg_max_db,
        y.gt_min_min_db, y.gt_min_max_db}) {
    digest.add(v);
  }
  if (y.samples != sz.yield_samples || y.passes > y.samples ||
      y.failed_evals > y.samples || !(y.pass_rate >= 0.0 && y.pass_rate <= 1.0)) {
    problems->push_back("yield report inconsistent");
  }
  return digest.hex();
}

}  // namespace

RunResult run_paper_pipeline(const Options& opt) {
  PipelineSizes sz;
  if (opt.smoke) {
    sz = {4, 2, 8, 3, 200, 256};
  }
  double setup_s = 0.0;
  const auto state = timed_setup<PipelineState>(
      [&] { return setup_pipeline(opt.seed, sz); }, &setup_s);
  std::uint64_t extract_evals = 0;
  return run_serial(
      opt, "pipeline_s", setup_s,
      [&](bool traced, std::vector<std::string>* problems) {
        return pipeline_once(*state, sz, problems,
                             traced ? &extract_evals : nullptr);
      },
      [&](const SpanTable& spans, const CounterWork& work, double reps,
          RunResult* r) {
        r->values["extract.three_step_s"] =
            incl_us(spans, "e2e.extract") / 1e6 / reps;
        r->values["extract.evaluations"] =
            static_cast<double>(extract_evals) / reps;
        r->values["optimize.self_s"] = self_us(spans, "e2e.design") / 1e6 / reps;
        r->values["lab.measure_design_s"] = incl_us(spans, "e2e.lab") / 1e6 / reps;
        r->values["yield.sample_us"] = incl_us(spans, "e2e.yield") / reps /
                                       static_cast<double>(sz.yield_samples);
        r->values["yield.failed_evals"] =
            counted(work, "yield.failed_evals") / reps;
      });
}

// ===========================================================================
// scenario_design: run_scenario_design for urban_canyon, serial.

namespace {

struct ScenarioState {
  device::Phemt device = device::Phemt::reference_device();
  mission::Scenario scenario;
  std::uint64_t seed = 0;
};

std::unique_ptr<ScenarioState> setup_scenario(std::uint64_t seed) {
  auto s = std::make_unique<ScenarioState>();
  s->seed = seed;
  const mission::Scenario* found = mission::find_scenario("urban_canyon");
  if (found == nullptr) throw std::runtime_error("urban_canyon not in catalog");
  s->scenario = *found;
  // Scenario analysis plus one objective evaluation: the geometry
  // reduction and the 1+N evaluation plans are built once here.
  const mission::ScenarioObjective objective(s->device,
                                             amplifier::AmplifierConfig{},
                                             s->scenario);
  objective.figures(amplifier::DesignVector{});
  return s;
}

std::string scenario_once(const ScenarioState& s, bool smoke,
                          std::vector<std::string>* problems) {
  mission::ScenarioDesignOptions o;
  // The seeded input: which parts series the design is snapped to.  It
  // changes the snapped outcome, not the optimizer's work.
  constexpr passives::ESeries kSeries[] = {
      passives::ESeries::kE12, passives::ESeries::kE24,
      passives::ESeries::kE48, passives::ESeries::kE96};
  o.series = kSeries[numeric::Rng(s.seed).split(5).uniform_index(4)];
  o.optimizer.threads = 1;
  // About a quarter of the default budget: ~2 s per design on a 2 GHz core.
  o.optimizer.de_generations = smoke ? 2 : 60;
  o.optimizer.polish_evaluations = smoke ? 100 : 3000;
  numeric::Rng rng = numeric::Rng(kOptimizerSeed).split(5);
  mission::ScenarioDesignOutcome out;
  {
    GNSSLNA_OBS_SPAN("e2e.scenario_design");
    out = mission::run_scenario_design(s.device, amplifier::AmplifierConfig{},
                                       s.scenario, rng, o);
  }
  Digest d;
  d.add(out.snapped.to_vector());
  d.add(out.optimization.attainment);
  d.add(out.snapped_figures.nf_weighted_db);
  d.add(out.snapped_figures.gt_weighted_db);
  d.add(out.snapped_figures.full.nf_avg_db);
  const auto& f = out.snapped_figures;
  if (!std::isfinite(out.optimization.attainment) ||
      !(f.nf_weighted_db > 0.0 && f.nf_weighted_db < 5.0) ||
      !(f.gt_weighted_db > 0.0 && f.gt_weighted_db < 40.0) ||
      f.sub_bands.size() != s.scenario.shells.size()) {
    problems->push_back("scenario design outcome out of range");
  }
  return d.hex();
}

}  // namespace

RunResult run_scenario_design(const Options& opt) {
  double setup_s = 0.0;
  const auto state = timed_setup<ScenarioState>(
      [&] { return setup_scenario(opt.seed); }, &setup_s);
  return run_serial(
      opt, "scenario_design_s", setup_s,
      [&](bool, std::vector<std::string>* problems) {
        return scenario_once(*state, opt.smoke, problems);
      },
      [](const SpanTable& spans, const CounterWork& work, double reps,
         RunResult* r) {
        const double evals = counted(work, "mission.objective.evaluations");
        // Everything outside the evaluation spans is the optimizer's (and
        // the objective's glue) own time.
        const double optimize_us = self_us(spans, "e2e.scenario_design") +
                                   self_us(spans, "mission.scenario_design");
        r->values["optimize.self_s"] = optimize_us / 1e6 / reps;
        r->values["mission.analyze_scenario_s"] =
            ratio(incl_us(spans, "mission.analyze_scenario") / 1e6,
                  span_count(spans, "mission.analyze_scenario"));
        r->values["mission.objective_evals"] = evals / reps;
        r->values["mission.eval_us"] =
            ratio(incl_us(spans, "e2e.scenario_design") - optimize_us, evals);
        r->values["mission.solves_per_eval"] =
            ratio(span_count(spans, "circuit.batch.solve"), evals);
      });
}

// ===========================================================================
// Service plumbing shared by the two service workloads: clients talk to a
// service::Session through an in-memory send function.

namespace {

/// One connected client.  Requests go through encode_frame and
/// Session::on_bytes; replies come back through the session's send
/// function (on a scheduler worker, or inline for rejections), are
/// decoded with a FrameReader and parsed, and handed to `on_reply`.
class ClientConn {
 public:
  using OnReply = std::function<void(std::uint64_t id, Json&& doc)>;

  ClientConn(service::Scheduler& scheduler, std::string client_id,
             OnReply on_reply)
      : on_reply_(std::move(on_reply)),
        session_(scheduler, std::move(client_id),
                 [this](const std::string& frame) { receive(frame); }) {}

  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;

  void send(std::string_view payload) {
    std::string frame;
    {
      GNSSLNA_OBS_SPAN("e2e.frame.encode");
      frame = service::encode_frame(payload);
    }
    GNSSLNA_OBS_SPAN("e2e.session.on_bytes");
    session_.on_bytes(frame);
  }

  void drain() { session_.drain(); }

 private:
  // Serialized by the session's send mutex.
  void receive(const std::string& frame) {
    GNSSLNA_OBS_SPAN("e2e.client.receive");
    std::string payload;
    bool complete = false;
    {
      GNSSLNA_OBS_SPAN("e2e.frame.decode");
      reader_.feed(frame);
      complete = reader_.next(&payload);
    }
    while (complete) {
      Json doc;
      bool parsed = false;
      {
        GNSSLNA_OBS_SPAN("e2e.json.parse");
        parsed = Json::parse(payload, &doc);
      }
      const Json* id = parsed ? doc.find("id") : nullptr;
      on_reply_(id != nullptr ? static_cast<std::uint64_t>(id->as_number()) : 0,
                std::move(doc));
      GNSSLNA_OBS_SPAN("e2e.frame.decode");
      complete = reader_.next(&payload);
    }
  }

  OnReply on_reply_;
  service::FrameReader reader_;
  service::Session session_;
};

/// Scheduler with the server's default admission settings over a private
/// plan cache, and its clients.  Sessions are drained before the
/// scheduler goes away.
struct ServiceState {
  service::PlanCache plans;
  service::Scheduler scheduler{service::SchedulerOptions{}, &plans};
  std::vector<std::unique_ptr<ClientConn>> clients;

  ~ServiceState() {
    for (auto& c : clients) c->drain();
  }
};

std::string submit_frame(std::uint64_t id, const std::string& type,
                         const std::string& params, bool spans) {
  return "{\"op\":\"submit\",\"id\":" + std::to_string(id) + ",\"type\":\"" +
         type + "\",\"params\":" + params + (spans ? ",\"spans\":true}" : "}");
}

/// The job's result member as canonical bytes; empty unless status ok.
std::string result_bytes(const Json& reply) {
  if (reply.string_at("status") != "ok") return {};
  const Json* result = reply.find("result");
  return result != nullptr ? result->dump() : std::string();
}

/// Direct, unscheduled run of the same job: the reference bytes.
std::string direct_result(const std::string& type, const std::string& params) {
  Json p;
  Json::parse(params, &p);
  return service::run_job(type, p, service::JobContext{}).dump();
}

/// Per-request layer means from the capture of a service run [us].
struct ServiceLayers {
  double frame = 0, json = 0, intake = 0, acquire = 0, run = 0, kernel = 0,
         serialize = 0, receive = 0;
  double sum() const {
    return frame + json + intake + acquire + run + kernel + serialize + receive;
  }
};

ServiceLayers service_layers(const SpanTable& spans, double n) {
  ServiceLayers l;
  l.frame = (incl_us(spans, "e2e.frame.encode") +
             incl_us(spans, "e2e.frame.decode")) / n;
  l.json = incl_us(spans, "e2e.json.parse") / n;
  l.intake = self_us(spans, "e2e.session.on_bytes") / n;
  l.acquire = incl_us(spans, "service.job.plan_acquire") / n;
  l.run = self_us(spans, "service.job.run") / n;
  l.kernel = incl_us(spans, "amplifier.band_evaluate") / n;
  l.serialize = self_us(spans, "service.session.serialize") / n;
  l.receive = self_us(spans, "e2e.client.receive") / n;
  return l;
}

const obs::HistogramValue* find_histogram(const obs::MetricsSnapshot& m,
                                          const char* name) {
  for (const auto& h : m.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// Layer values every service workload reports.
void set_service_layers(const SpanTable& spans, double n,
                        const CounterWork& work, RunResult* r) {
  const ServiceLayers l = service_layers(spans, n);
  r->values["protocol.frame_us"] = l.frame;
  r->values["json.parse_us"] = l.json;
  r->values["session.intake_us"] = l.intake;
  r->values["plan_cache.acquire_us"] = l.acquire;
  r->values["jobs.run_us"] = l.run;
  r->values["session.serialize_us"] = l.serialize;
  const double hits = counted(work, "service.plan_cache.hits");
  const double misses = counted(work, "service.plan_cache.misses");
  r->values["plan_cache.hit_ratio"] = ratio(hits, hits + misses);
  r->values["plan_cache.misses"] = misses;
  r->values["scheduler.rejected_ratio"] =
      ratio(counted(work, "service.rejected"),
            counted(work, "service.submitted"));
  const obs::MetricsSnapshot m = obs::metrics_snapshot();
  if (const obs::HistogramValue* q = find_histogram(m, "service.queue_wait_us")) {
    r->values["scheduler.queue_wait_us"] =
        ratio(static_cast<double>(q->sum), static_cast<double>(q->total));
    r->values["scheduler.queue_wait_p99_ms"] =
        obs::histogram_quantile(*q, 0.99) / 1e3;
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "layers_us frame %.2f json %.2f intake %.2f queue_wait %.2f "
                "acquire %.2f run %.2f kernel %.2f serialize %.2f receive %.2f",
                l.frame, l.json, l.intake, r->values["scheduler.queue_wait_us"],
                l.acquire, l.run, l.kernel, l.serialize, l.receive);
  r->report.push_back(buf);
}

// ---------------------------------------------------------------------------
// evaluate_closed_loop

constexpr std::size_t kDesignPool = 64;

/// Seeded evaluate params: design points around the nominal design, one
/// plan-cache revision (default config and band).
std::vector<std::string> evaluate_pool(std::uint64_t seed) {
  numeric::Rng rng = numeric::Rng(seed).split(6);
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < kDesignPool; ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"design\":{\"vgs\":%.4f,\"vds\":%.3f,\"l_shunt_h\":%.4g,"
                  "\"c_mid_f\":%.4g,\"r_fb_ohm\":%.1f}}",
                  rng.uniform(-0.45, -0.25), rng.uniform(2.0, 3.0),
                  8e-9 * rng.uniform(0.8, 1.2), 0.5e-12 * rng.uniform(0.8, 1.2),
                  3000.0 * rng.uniform(0.8, 1.2));
    pool.push_back(buf);
  }
  return pool;
}

/// One request in flight: the client spins until its reply arrived.  A
/// sleeping client would add its own wake-up to every round trip; on a
/// shared VM that wake-up tracked the hypervisor's steal time (p50 moved
/// 30%, p90 65% between 0.4% and 7.6% steal; spinning: 4% and 21%).
class ClosedLoop {
 public:
  explicit ClosedLoop(ServiceState& service) {
    service.clients.push_back(std::make_unique<ClientConn>(
        service.scheduler, "closed-loop", [this](std::uint64_t, Json&& doc) {
          reply_ = std::move(doc);
          done_.store(true, std::memory_order_release);
        }));
    client_ = service.clients.back().get();
  }

  Json call(const std::string& frame) {
    done_.store(false, std::memory_order_relaxed);
    client_->send(frame);
    while (!done_.load(std::memory_order_acquire)) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
    return std::move(reply_);
  }

 private:
  ClientConn* client_ = nullptr;
  std::atomic<bool> done_{false};
  Json reply_;  ///< written before done_ is set, read after it is seen
};

struct EvaluateState {
  ServiceState service;
  ClosedLoop loop{service};
};

}  // namespace

RunResult run_evaluate_closed_loop(const Options& opt) {
  RunResult r;
  const std::vector<std::string> pool = evaluate_pool(opt.seed);
  double setup_s = 0.0;
  const auto state = timed_setup<EvaluateState>(
      [&] {
        auto s = std::make_unique<EvaluateState>();
        // Plan warm-up: the first job builds the cached evaluator.
        s->loop.call(submit_frame(0, "evaluate", pool[0], false));
        return s;
      },
      &setup_s);

  numeric::Rng pick = numeric::Rng(opt.seed).split(7);
  std::vector<std::string> first(kDesignPool);   // first reply per point
  std::vector<std::uint64_t> uses(kDesignPool, 0);
  std::uint64_t next_id = 1;
  auto phase = [&](double seconds, bool spans) {
    std::vector<double> rtt;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds || rtt.empty()) {
      const std::size_t k = pick.uniform_index(kDesignPool);
      const std::string frame =
          submit_frame(next_id++, "evaluate", pool[k], spans);
      const auto t = Clock::now();
      const Json reply = state->loop.call(frame);
      rtt.push_back(seconds_since(t));
      // Checking happens after the clock stopped.
      ++r.attempted;
      ++uses[k];
      const std::string bytes = result_bytes(reply);
      if (bytes.empty()) {
        r.fail("evaluate reply status " + reply.string_at("status"));
      } else if (first[k].empty()) {
        first[k] = bytes;
      } else if (bytes != first[k]) {
        r.fail("evaluate reply differs between identical requests");
      }
    }
    return rtt;
  };

  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::vector<double> rtt = phase(window, false);
  std::vector<double> traced;
  SpanTable spans;
  const CounterWork before = obs::counter_snapshot();
  if (opt.trace) {
    obs::metrics_reset();
    const TracedPhase traced_phase;
    traced = phase(window, false);
    drain_span_capture(opt.scratch_dir, &spans);
  }
  const CounterWork work = obs::counter_delta(obs::counter_snapshot(), before);

  // Every distinct reply must equal a direct run of the same job.
  Digest digest;
  for (std::size_t k = 0; k < kDesignPool; ++k) {
    if (first[k].empty()) continue;
    digest.add(first[k]);
    if (first[k] != direct_result("evaluate", pool[k])) {
      r.failed += uses[k];
      r.report.push_back("CHECK FAILED: evaluate reply != direct run_job");
    }
  }
  r.digest = digest.hex();

  const double p50_us = median(rtt) * 1e6;
  const double p90_us = quantile(rtt, 0.90) * 1e6;
  const double p99_us = quantile(rtt, 0.99) * 1e6;
  r.report.push_back("evaluate_p50_us=" + fmt("%.2f", p50_us) +
                     " us evaluate_p90_us=" + fmt("%.2f", p90_us) +
                     " us evaluate_p99_us=" + fmt("%.2f", p99_us) +
                     " us requests=" + std::to_string(rtt.size()) +
                     " round_trips_per_s=" +
                     fmt("%.1f", static_cast<double>(rtt.size()) / sum(rtt)));
  if (!opt.trace) {
    r.values["setup_s"] = setup_s;
    r.values["peak_rss_mb"] = peak_rss_mb();
    r.values["latency_p50_ms"] = p50_us / 1e3;
    // The bounded tail is p90: on a shared host the p99 round trip
    // measured the hypervisor (0.22 ms quiet, 1-3.7 ms under neighbour
    // load), not the program.  p99 is in the report line.
    r.values["latency_tail_ms"] = p90_us / 1e3;
    return r;
  }

  const double n = static_cast<double>(traced.size());
  report_spans(spans, n, &r);
  set_service_layers(spans, n, work, &r);
  const double mean_rtt_us = sum(traced) / n * 1e6;
  const double accounted =
      service_layers(spans, n).sum() + r.values["scheduler.queue_wait_us"];
  r.values["amplifier.band_evals"] =
      counted(work, "amplifier.band_evaluations") / n;
  r.values["amplifier.band_eval_us"] =
      ratio(incl_us(spans, "amplifier.band_evaluate"),
            span_count(spans, "amplifier.band_evaluate"));
  r.values["circuit.batch.solves"] = span_count(spans, "circuit.batch.solve") / n;
  r.values["circuit.batch.solve_us"] =
      ratio(incl_us(spans, "circuit.batch.solve"),
            span_count(spans, "circuit.batch.solve"));
  r.values["service.unaccounted_us"] = mean_rtt_us - accounted;
  r.values["accounted_fraction"] = accounted / mean_rtt_us;
  r.values["obs.trace_overhead_ratio"] = median(traced) / median(rtt);
  return r;
}

// ===========================================================================
// mixed_open_loop: the load_gen job mix on a seeded Poisson schedule.

namespace {

constexpr std::size_t kMixedClients = 4;
/// The job stream is the same for every seed: which extract and design
/// jobs a step draws moves its cost more than the bound allows.  The seed
/// drives the arrival times and the checked sample.
constexpr std::uint64_t kMixStreamSeed = 1;

/// A step whose generator lateness p99 exceeds this fell behind its
/// schedule (a stall longer than the slowest job type) and is invalid.
constexpr double kLagLimitS = 5e-3;

struct MixedRequest {
  std::string type;
  std::string params;
};

/// The load_gen mix (examples/load_gen.cpp keeps its copy private to the
/// example): 70% evaluate at two ambient temperatures, 18% sweeps over 12
/// grids, then small design, yield and extract jobs.  A pure function of
/// (root, index).
MixedRequest mixed_request(const numeric::Rng& root, std::uint64_t i) {
  numeric::Rng rng = root.split(i);
  const double pick = rng.uniform();
  char buf[256];
  if (pick < 0.70) {
    std::snprintf(buf, sizeof buf,
                  R"({"design":{"vgs":%.4f,"vds":%.3f},)"
                  R"("config":{"t_ambient_k":%g}})",
                  rng.uniform(-0.45, -0.25), rng.uniform(2.0, 3.0),
                  rng.bernoulli(0.3) ? 310.0 : 290.0);
    return {"evaluate", buf};
  }
  if (pick < 0.88) {
    std::snprintf(buf, sizeof buf,
                  R"({"f_lo_hz":1.1e9,"f_hi_hz":1.7e9,"n_points":%llu,)"
                  R"("with_noise":%s})",
                  static_cast<unsigned long long>(5 + rng.uniform_index(12)),
                  rng.bernoulli(0.5) ? "true" : "false");
    return {"sweep", buf};
  }
  if (pick < 0.94) {
    std::snprintf(buf, sizeof buf,
                  R"({"seed":%llu,"de_generations":2,"de_population":8,)"
                  R"("polish_evaluations":30})",
                  static_cast<unsigned long long>(1 + rng.uniform_index(64)));
    return {"design", buf};
  }
  if (pick < 0.98) {
    std::snprintf(buf, sizeof buf,
                  R"({"seed":%llu,"samples":32,"sampler":"%s"})",
                  static_cast<unsigned long long>(1 + rng.uniform_index(64)),
                  rng.bernoulli(0.5) ? "sobol" : "pseudo");
    return {"yield", buf};
  }
  std::snprintf(buf, sizeof buf,
                R"({"seed":%llu,"model":"curtice2","n_freq":4,)"
                R"("de_generations":1,"de_population":8})",
                static_cast<unsigned long long>(1 + rng.uniform_index(64)));
  return {"extract", buf};
}

/// One request of a step.  `sent` is written by the generator, the reply
/// fields by whichever thread delivers the reply; read after drain().
struct Slot {
  MixedRequest request;
  bool sampled = false;  ///< reply checked against a direct run_job
  double due = 0.0;      ///< [s] from step start
  double sent = 0.0;
  double done = 0.0;
  std::string status;
  std::string result;        ///< sampled replies only
  double queue_wait_us = 0;  ///< from the job's span tree, when requested
  double run_us = 0;
};

struct StepStats {
  double rate = 0.0;     ///< nominal
  double offered = 0.0;  ///< realized: requests / step length
  double goodput = 0.0;  ///< ok replies / (first send .. last reply)
  std::size_t n = 0, ok = 0, rejected = 0, errors = 0;
  double p50_ms = 0, p99_ms = 0, lag_p99_ms = 0;
  std::size_t peak_queue = 0;
  bool backlog_growing = false;
  bool generator_behind = false;

  bool meets(double limit_ms) const {
    return rejected == 0 && errors == 0 && p99_ms <= limit_ms &&
           !backlog_growing && !generator_behind;
  }
  std::string line(const char* tag) const {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "step %-6s rate %8.1f/s n %6zu ok %6zu rejected %4zu "
                  "errors %3zu p50 %8.3f ms p99 %8.3f ms lag_p99 %6.3f ms "
                  "peak_queue %3zu%s%s",
                  tag, rate, n, ok, rejected, errors, p50_ms, p99_ms,
                  lag_p99_ms, peak_queue,
                  backlog_growing ? " BACKLOG-GROWING" : "",
                  generator_behind ? " INVALID(generator behind)" : "");
    return buf;
  }
};

double child_total_us(const Json& tree, const char* name) {
  const Json* children = tree.find("children");
  if (children == nullptr) return 0.0;
  for (std::size_t i = 0; i < children->size(); ++i) {
    if (children->at(i).string_at("name") == name) {
      return children->at(i).number_at("total_us", 0.0);
    }
  }
  return 0.0;
}

class MixedService {
 public:
  MixedService() {
    for (std::size_t c = 0; c < kMixedClients; ++c) {
      service_.clients.push_back(std::make_unique<ClientConn>(
          service_.scheduler, "client-" + std::to_string(c),
          [this](std::uint64_t id, Json&& doc) { on_reply(id, std::move(doc)); }));
    }
  }

  /// Sends slots[k] when its `due` time comes (or, with window > 0, as
  /// soon as fewer than `window` requests are outstanding) and waits for
  /// every reply.
  StepStats run(std::vector<Slot>* slots, bool spans, std::size_t window = 0) {
    slots_ = slots;
    base_id_ = next_id_;
    next_id_ += slots->size();
    completed_.store(0);
    StepStats st;
    std::vector<double> outstanding;
    const auto t0 = Clock::now();
    t0_ = t0;
    for (std::size_t k = 0; k < slots->size(); ++k) {
      Slot& s = (*slots)[k];
      const std::string frame =
          submit_frame(base_id_ + k, s.request.type, s.request.params, spans);
      if (window > 0) {
        std::unique_lock<std::mutex> lock(done_mutex_);
        done_cv_.wait(lock, [&] { return k - completed_.load() < window; });
      } else {
        // Sleep to just before the due time, then spin: a timer wake-up of
        // an idle vCPU can be milliseconds late on a shared host.
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(s.due));
        std::this_thread::sleep_until(due - std::chrono::microseconds(200));
        while (Clock::now() < due) {
        }
      }
      s.sent = seconds_since(t0);
      if (window > 0) s.due = s.sent;
      service_.clients[k % kMixedClients]->send(frame);
      st.peak_queue = std::max(st.peak_queue, service_.scheduler.queued());
      outstanding.push_back(static_cast<double>(k + 1 - completed_.load()));
    }
    for (auto& c : service_.clients) c->drain();
    const double window_s = seconds_since(t0);
    slots_ = nullptr;

    st.n = slots->size();
    std::vector<double> lat, lag;
    for (const Slot& s : *slots) {
      lag.push_back(s.sent - s.due);
      if (s.status == "ok") {
        ++st.ok;
        lat.push_back(s.done - s.due);
      } else {
        // A failed or refused request misses every latency limit.
        (s.status == "rejected" ? st.rejected : st.errors) += 1;
        lat.push_back(window_s);
      }
    }
    st.goodput = static_cast<double>(st.ok) / window_s;
    st.p50_ms = median(lat) * 1e3;
    st.p99_ms = quantile(lat, 0.99) * 1e3;
    st.lag_p99_ms = quantile(lag, 0.99) * 1e3;
    st.generator_behind = st.lag_p99_ms > kLagLimitS * 1e3;
    const std::size_t third = outstanding.size() / 3;
    if (third > 0) {
      const double first = std::accumulate(outstanding.begin(),
                                           outstanding.begin() + third, 0.0) / third;
      const double last = std::accumulate(outstanding.end() - third,
                                          outstanding.end(), 0.0) / third;
      st.backlog_growing = last > 2.0 * first + 4.0;
    }
    return st;
  }

  service::Scheduler& scheduler() { return service_.scheduler; }

 private:
  void on_reply(std::uint64_t id, Json&& doc) {
    Slot& s = (*slots_)[id - base_id_];
    s.done = seconds_since(t0_);
    s.status = doc.string_at("status");
    if (s.sampled) s.result = result_bytes(doc);
    if (const Json* tree = doc.find("spans")) {
      s.queue_wait_us = child_total_us(*tree, "service.job.queue_wait");
      s.run_us = child_total_us(*tree, "service.job.run");
    }
    completed_.fetch_add(1);
    { const std::lock_guard<std::mutex> lock(done_mutex_); }
    done_cv_.notify_one();
  }

  ServiceState service_;
  std::vector<Slot>* slots_ = nullptr;
  Clock::time_point t0_;
  std::uint64_t base_id_ = 0;
  std::uint64_t next_id_ = 1;
  std::atomic<std::size_t> completed_{0};
  std::mutex done_mutex_;  ///< orders completed_ updates with done_cv_ waits
  std::condition_variable done_cv_;
};

/// The requests of one step: Poisson arrivals at `rate` over `seconds`
/// (or `count` back-to-back requests when rate is 0), continuing the
/// stream at `*index`.
std::vector<Slot> make_step(std::uint64_t seed, std::uint64_t* index,
                            double rate, double seconds, std::size_t count,
                            bool check) {
  const numeric::Rng root = numeric::Rng(kMixStreamSeed).split(8);
  numeric::Rng arrivals = numeric::Rng(seed).split(9).split(*index);
  std::vector<Slot> slots;
  double t = 0.0;
  for (;;) {
    if (rate > 0.0) {
      t += -std::log(1.0 - arrivals.uniform()) / rate;
      if (t > seconds) break;
    } else if (slots.size() == count) {
      break;
    }
    Slot s;
    s.request = mixed_request(root, *index);
    s.due = rate > 0.0 ? t : 0.0;
    // About one in twelve replies is checked byte for byte.
    s.sampled = check && numeric::Rng(seed).split(10).split(*index).uniform() <
                             1.0 / 12;
    ++*index;
    slots.push_back(std::move(s));
  }
  return slots;
}

/// Compares the sampled replies with direct run_job results; returns the
/// number of mismatches.
std::size_t check_sampled(const std::vector<Slot>& slots, Digest* digest) {
  std::size_t bad = 0;
  for (const Slot& s : slots) {
    if (!s.sampled || s.status != "ok") continue;
    digest->add(s.result);
    if (s.result != direct_result(s.request.type, s.request.params)) ++bad;
  }
  return bad;
}

void account_step(const std::vector<Slot>& slots, const StepStats& st,
                  Digest* digest, RunResult* r) {
  r->attempted += st.n;
  r->failed += st.rejected + st.errors;
  if (st.rejected + st.errors > 0) {
    r->report.push_back("CHECK FAILED: " +
                        std::to_string(st.rejected + st.errors) +
                        " requests rejected or failed");
  }
  const std::size_t bad = check_sampled(slots, digest);
  if (bad > 0) r->fail(std::to_string(bad) + " replies != direct run_job");
}

}  // namespace

RunResult run_mixed_open_loop(const Options& opt) {
  RunResult r;
  std::uint64_t index = 0;
  // Set-up: scheduler, sessions, and one pass over every job type and
  // plan-cache revision of the mix, so steps start warm.
  std::vector<Slot> warm;
  const auto add_warm = [&warm](const char* type, std::string params) {
    Slot s;
    s.request = {type, std::move(params)};
    warm.push_back(std::move(s));
  };
  add_warm("evaluate", R"({"config":{"t_ambient_k":290}})");
  add_warm("evaluate", R"({"config":{"t_ambient_k":310}})");
  for (int n = 5; n <= 16; ++n) {
    add_warm("sweep", R"({"f_lo_hz":1.1e9,"f_hi_hz":1.7e9,"n_points":)" +
                          std::to_string(n) + "}");
  }
  add_warm("design", R"({"seed":1,"de_generations":1,"de_population":8,)"
                     R"("polish_evaluations":10})");
  add_warm("yield", R"({"seed":1,"samples":8})");
  add_warm("extract", R"({"seed":1,"model":"curtice2","n_freq":4,)"
                      R"("de_generations":1,"de_population":8})");

  double setup_s = 0.0;
  const auto svc = timed_setup<MixedService>(
      [&] {
        auto s = std::make_unique<MixedService>();
        std::vector<Slot> slots = warm;
        const StepStats st = s->run(&slots, false, 1);
        if (st.ok != slots.size()) throw std::runtime_error("warm-up job failed");
        return s;
      },
      &setup_s);

  Digest digest;
  auto step = [&](double rate, double seconds, bool check, bool spans,
                  std::vector<Slot>* keep = nullptr) {
    std::vector<Slot> slots = make_step(opt.seed, &index, rate, seconds, 0, check);
    StepStats st = svc->run(&slots, spans);
    st.rate = rate;
    st.offered = static_cast<double>(st.n) / seconds;
    if (check) account_step(slots, st, &digest, &r);
    if (keep != nullptr) *keep = std::move(slots);
    return st;
  };

  // Pre-roll: a short untimed, unchecked step at the high rate brings
  // every thread and cache of the service to its steady state.
  step(opt.high_rate, std::min(1.0, opt.seconds * 0.1), false, false);

  if (opt.trace) {
    const double half = opt.seconds / 2;
    const StepStats untraced = step(opt.high_rate, half, true, false);
    r.report.push_back(untraced.line("high"));
    std::vector<Slot> slots;
    SpanTable spans;
    const CounterWork before = obs::counter_snapshot();
    StepStats traced;
    {
      obs::metrics_reset();
      const TracedPhase phase;
      traced = step(opt.high_rate, half, true, true, &slots);
      drain_span_capture(opt.scratch_dir, &spans);
    }
    const CounterWork work =
        obs::counter_delta(obs::counter_snapshot(), before);
    r.report.push_back(traced.line("traced"));
    r.digest = digest.hex();
    const double n = static_cast<double>(slots.size());
    report_spans(spans, n, &r);
    set_service_layers(spans, n, work, &r);

    std::map<std::string, std::vector<double>> run_ms;
    std::vector<double> waits_ms;
    double explained_s = 0.0, latency_s = 0.0;
    for (const Slot& s : slots) {
      if (s.status != "ok") continue;
      run_ms[s.request.type].push_back(s.run_us / 1e3);
      waits_ms.push_back(s.queue_wait_us / 1e3);
      explained_s += (s.queue_wait_us + s.run_us) / 1e6 + (s.sent - s.due);
      latency_s += s.done - s.due;
    }
    for (const char* type : {"evaluate", "sweep", "design", "yield", "extract"}) {
      r.values[std::string("jobs.") + type + ".run_ms"] =
          run_ms.count(type) ? median(run_ms[type]) : 0.0;
    }
    r.values["scheduler.queue_wait_p99_ms"] = quantile(waits_ms, 0.99);
    r.values["gen.lag_p99_ms"] = traced.lag_p99_ms;
    r.values["scheduler.peak_queue_depth"] = static_cast<double>(traced.peak_queue);
    const ServiceLayers l = service_layers(spans, n);
    explained_s += n * (l.frame + l.json + l.intake + l.serialize + l.receive) / 1e6;
    r.values["accounted_fraction"] = ratio(explained_s, latency_s);
    r.values["obs.trace_overhead_ratio"] = ratio(traced.p50_ms, untraced.p50_ms);
    return r;
  }

  // The low step gives the end-to-end latencies.  The high step reports
  // its goodput (completions per second from the first send to the last
  // reply: the offered rate while the service keeps up, less when it
  // rejects or backs up).  A bisection over a fixed geometric ladder
  // (2^(1/16) apart, from the low rate to twice the high rate) then finds
  // the highest rate whose p99 meets the limit with no rejection and no
  // backlog growth.  That answer, like a closed-loop capacity, moved by
  // 20-35% between runs on a shared 4-vCPU host.
  const double s_low = opt.seconds * 0.35, s_high = opt.seconds * 0.3;
  const double s_rung = opt.seconds * 0.35 / 5;
  const StepStats low = step(opt.low_rate, s_low, true, false);
  const StepStats high = step(opt.high_rate, s_high, true, false);
  r.report.push_back(low.line("low"));
  r.report.push_back(high.line("high"));
  r.digest = digest.hex();

  const auto rung_rate = [&](int j) { return opt.low_rate * std::exp2(j / 16.0); };
  const int top = static_cast<int>(std::ceil(16 * std::log2(2 * opt.high_rate / opt.low_rate)));
  const int at_high = static_cast<int>(std::lround(16 * std::log2(opt.high_rate / opt.low_rate)));
  int lo = -1, hi = top + 1;
  StepStats best;  // highest passing rung so far
  if (high.meets(opt.p99_limit_ms)) {
    lo = at_high;
    best = high;
  } else if (low.meets(opt.p99_limit_ms)) {
    lo = 0;
    hi = at_high;
    best = low;
  }
  while (lo >= 0 && hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const StepStats st = step(rung_rate(mid), s_rung, false, false);
    r.report.push_back(st.line(("r" + std::to_string(mid)).c_str()));
    if (st.meets(opt.p99_limit_ms)) {
      lo = mid;
      best = st;
    } else {
      hi = mid;
    }
  }
  // The realized arrival rate of the highest passing rung: the Poisson
  // count makes it continuous around the rung's nominal rate.
  const double max_rate =
      lo >= 0 ? best.offered
              : low.offered * opt.p99_limit_ms / std::max(low.p99_ms, 1e-9);
  if (lo < 0) r.report.push_back("max rate below the low step: extrapolated");
  r.report.push_back("mixed_p50_ms.low=" + fmt("%.4f", low.p50_ms) +
                     " ms mixed_p99_ms.low=" + fmt("%.4f", low.p99_ms) +
                     " ms mixed_p50_ms.high=" + fmt("%.4f", high.p50_ms) +
                     " ms mixed_p99_ms.high=" + fmt("%.4f", high.p99_ms) +
                     " ms mixed_max_rate_jobs_s=" + fmt("%.1f", max_rate) +
                     " jobs/s goodput_high=" + fmt("%.1f", high.goodput) +
                     " jobs/s");
  r.values["setup_s"] = setup_s;
  r.values["peak_rss_mb"] = peak_rss_mb();
  r.values["latency_p50_ms"] = low.p50_ms;
  r.values["latency_tail_ms"] = low.p99_ms;
  return r;
}

}  // namespace e2ebench
