// Gauges and fixed-bucket histograms next to the obs.h counters and spans,
// one unified snapshot, and its byte-stable expositions.
//
// Design rules (extend DESIGN.md "Observability"):
//   * One registry — gauges and histograms register in the same leaked
//     obs.h registry as counters and spans (one mutex, one name -> id
//     function; implemented in obs.cpp): dense ids in first-registration
//     order, fixed capacities that throw when exceeded, every export keyed
//     (and sorted) by NAME so nothing depends on which thread registered
//     first.
//   * Gauges are process-global atomics (set/add), intended for low-
//     frequency level tracking (queue depth, in-flight jobs, plan-cache
//     residency) — not for hot-path increments (use counters).
//   * Histograms have FIXED ascending bucket upper bounds declared at
//     registration plus an implicit +Inf overflow bucket; observe() is one
//     relaxed fetch_add.  Bounds are part of the exposition, so two
//     processes with the same instrumentation emit the same layout.  This
//     is the one histogram type: service latency percentiles, SLOs and
//     both expositions all read it.
//   * Determinism classes — every metric is either STABLE (a pure function
//     of what work ran: job counts, evaluation counts, batched solves) or
//     OBSERVATIONAL (dependent on thread placement or cache warmth:
//     plan-cache hits, re-tabulations, workspace reuse).  The class is
//     derived from the name via a fixed prefix table
//     (metric_is_observational); zero_observational() is the one place
//     that zeroes observational values while keeping the full name layout,
//     which is what makes deterministic exposition byte-identical across
//     worker counts.
//   * Runtime gating — like counters, gauges and histograms record only
//     while obs::enabled(); with instrumentation compiled out callers are
//     expected not to register at all (guard registration behind
//     obs::compiled_in()), so snapshots and exposition are empty.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace gnsslna::obs {

/// A named level (not monotonic).  Construction registers the name
/// (idempotent); set/add are relaxed atomics on a process-global slot.
class Gauge {
 public:
  explicit Gauge(const char* name);
  void set(std::int64_t v) const;
  void add(std::int64_t d) const;
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// A named fixed-bucket histogram.  `upper_bounds` must be strictly
/// ascending; an overflow (+Inf) bucket is implicit.  Re-registering a
/// name reuses the first registration's bounds.
class Histogram {
 public:
  Histogram(const char* name, std::vector<double> upper_bounds);
  void observe(double value) const;
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> counts;  ///< size = upper_bounds.size() + 1
  std::uint64_t total = 0;            ///< sum of counts
  std::int64_t sum = 0;               ///< sum of llround(observed values)
};

/// One unified view: every registered counter, gauge, and histogram, each
/// section sorted by name.  Zero-valued entries are included (stable
/// layout).
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of the named counter; 0 when absent.
  std::uint64_t counter(std::string_view name) const;
  /// The named histogram; nullptr when absent.
  const HistogramValue* histogram(std::string_view name) const;
};

/// Reads every section under one registry lock.
MetricsSnapshot metrics_snapshot();

/// Determinism class of a metric name (fixed prefix table — see the file
/// comment).  Observational metrics are zeroed by deterministic exposition
/// and filtered from deterministic flight-recorder counter deltas.
bool metric_is_observational(std::string_view name);

/// The snapshot with every observational value zeroed (histograms: counts,
/// total and sum); names, bounds and order unchanged.  Every deterministic
/// exposition renders through this.
MetricsSnapshot zero_observational(MetricsSnapshot snapshot);

/// Prometheus text exposition (text format 0.0.4): `# TYPE` line plus
/// samples per metric, names prefixed `gnsslna_` with [^a-zA-Z0-9_] mapped
/// to '_'.  Byte-stable: sections and entries follow the snapshot's
/// name-sorted order.  With deterministic = true the snapshot renders
/// through zero_observational (layout unchanged).
std::string prometheus_text(const MetricsSnapshot& snapshot,
                            bool deterministic);

/// Interpolated quantile (midpoint rule): the q-quantile sample is ranked
/// k = floor(q * total) + 1 and placed at (k - 0.5)/n of its bucket's
/// width.  Returns 0 for an empty histogram; a rank landing in the
/// overflow bucket returns the last finite bound.
double histogram_quantile(const HistogramValue& h, double q);

/// Zeroes every gauge and histogram (registrations persist) but leaves
/// counters and spans alone, so counter snapshots taken across it still
/// subtract; obs::reset() zeroes everything.  Tests and tools only.
void metrics_reset();

}  // namespace gnsslna::obs
