// The five job types the design-as-a-service server executes, as plain
// functions from (validated JSON params) to (deterministic JSON result):
//
//   evaluate — one BandReport for a design point (plan-cache lease);
//   sweep    — swept S-parameters / NF / group delay of a design;
//   design   — the full goal-attainment design flow, with convergence
//              trace, sharing compiled stamps through the plan cache;
//   yield    — Monte-Carlo / Sobol tolerance analysis of a design;
//   extract  — synthetic-bench three-step pHEMT model identification.
//
// Contract (pinned by tests/test_service.cpp): a job's result payload is
// a pure function of (type, params) — every stochastic stage is seeded
// from params["seed"], every optimizer runs threads == 1 inside the job
// (the scheduler supplies the concurrency BETWEEN jobs), and nothing
// wall-clock enters the payload — so the serialized result is
// bit-identical whether the job runs alone or under saturating traffic.
//
// Budget-style parameters are range-checked and capped (admission
// control): a hostile or confused client cannot submit a job whose cost
// is unbounded.  Violations throw JobError, which the server maps to a
// well-formed error reply; JobCancelled / JobTimeout are thrown from
// ctx.check_cancel at generation barriers and unwind the optimizer
// stacks through their RAII scopes.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "service/json.h"
#include "service/plan_cache.h"

namespace gnsslna::service {

/// Client-visible job failure: bad parameters, unknown type, infeasible
/// topology.  `code` is the machine-readable error class on the wire.
class JobError : public std::runtime_error {
 public:
  JobError(std::string code, const std::string& what)
      : std::runtime_error(what), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// Thrown (from JobContext::check_cancel) when the client cancelled the
/// job; the server replies {"status":"cancelled"}.
class JobCancelled : public std::runtime_error {
 public:
  JobCancelled() : std::runtime_error("job cancelled") {}
};

/// Thrown when the job's deadline passed; reply {"status":"timeout"}.
class JobTimeout : public std::runtime_error {
 public:
  JobTimeout() : std::runtime_error("job deadline exceeded") {}
};

/// Ambient services a job runs against.  All optional: a default
/// context runs the job standalone (tests call run_job directly).
struct JobContext {
  /// Shared compiled-plan tier; nullptr builds per-job evaluators.
  PlanCache* plans = nullptr;
  /// Invoked at every generation barrier / trace point; throws
  /// JobCancelled or JobTimeout to stop the job.  Must be cheap.
  std::function<void()> check_cancel = {};
  /// Streaming per-generation progress (forwarded to the client as
  /// `progress` events by the server).  Called on the job's thread at
  /// the same barriers as check_cancel.
  obs::TraceSink progress = {};
};

/// True for the five job types above.
bool is_job_type(std::string_view type);

/// Runs one job to completion on the calling thread and returns its
/// result payload.  Throws JobError / JobCancelled / JobTimeout.
Json run_job(const std::string& type, const Json& params,
             const JobContext& ctx);

/// The mission-scenario catalog as a JSON array (name, description,
/// blocker flag, and the deterministic analysis: T_ant, derived NF goal,
/// per-constellation sub-band weights).  Backs the `list_scenarios` op.
/// The analyses are computed once per process and shared with the yield
/// job's scenario goal — analyze_scenario is pure.
Json list_scenarios_json();

}  // namespace gnsslna::service
