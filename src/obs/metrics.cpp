#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gnsslna::obs {

namespace {

/// Fixed determinism classification (see metrics.h).  Everything not
/// matched here is STABLE: a pure function of the work that ran.
constexpr const char* kObservationalPrefixes[] = {
    "service.plan_cache.",           // lease hit/miss depends on interleaving
    "circuit.batch.workspace_reuses",  // per-thread workspace reuse
    "circuit.batch.arena_bytes_hwm",   // summed per-thread high-water marks
    "amplifier.report_cache.",       // per-thread memo hit pattern
    "yield.plan_builds",             // one build per WORKER, not per sample
    "yield.resyncs",                 // per-worker re-binds
    "microstrip.width_syntheses",    // service boards resolve once per process
};

std::string sanitize(const std::string& name) {
  std::string out = "gnsslna_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_bound(std::string* out, double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%g", v);
  }
  out->append(buf);
}

void append_u64(std::string* out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

void append_i64(std::string* out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out->append(buf);
}

}  // namespace

bool metric_is_observational(std::string_view name) {
  for (const char* prefix : kObservationalPrefixes) {
    if (name.substr(0, std::string_view(prefix).size()) == prefix) {
      return true;
    }
  }
  return false;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const HistogramValue* MetricsSnapshot::histogram(std::string_view name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsSnapshot zero_observational(MetricsSnapshot snapshot) {
  for (CounterValue& c : snapshot.counters) {
    if (metric_is_observational(c.name)) c.value = 0;
  }
  for (GaugeValue& g : snapshot.gauges) {
    if (metric_is_observational(g.name)) g.value = 0;
  }
  for (HistogramValue& h : snapshot.histograms) {
    if (!metric_is_observational(h.name)) continue;
    std::fill(h.counts.begin(), h.counts.end(), std::uint64_t{0});
    h.total = 0;
    h.sum = 0;
  }
  return snapshot;
}

std::string prometheus_text(const MetricsSnapshot& snapshot,
                            bool deterministic) {
  if (deterministic) {
    return prometheus_text(zero_observational(snapshot), false);
  }
  std::string out;
  for (const CounterValue& c : snapshot.counters) {
    const std::string p = sanitize(c.name);
    out += "# TYPE " + p + " counter\n" + p + " ";
    append_u64(&out, c.value);
    out += "\n";
  }
  for (const GaugeValue& g : snapshot.gauges) {
    const std::string p = sanitize(g.name);
    out += "# TYPE " + p + " gauge\n" + p + " ";
    append_i64(&out, g.value);
    out += "\n";
  }
  for (const HistogramValue& h : snapshot.histograms) {
    const std::string p = sanitize(h.name);
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      cum += h.counts[b];
      out += p + "_bucket{le=\"";
      append_bound(&out, h.upper_bounds[b]);
      out += "\"} ";
      append_u64(&out, cum);
      out += "\n";
    }
    cum += h.counts[h.upper_bounds.size()];
    out += p + "_bucket{le=\"+Inf\"} ";
    append_u64(&out, cum);
    out += "\n" + p + "_sum ";
    append_i64(&out, h.sum);
    out += "\n" + p + "_count ";
    append_u64(&out, cum);
    out += "\n";
  }
  return out;
}

double histogram_quantile(const HistogramValue& h, double q) {
  if (h.total == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const std::uint64_t k =
      static_cast<std::uint64_t>(q * static_cast<double>(h.total)) + 1;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    if (h.counts[b] == 0) continue;
    cum += h.counts[b];
    if (cum < k) continue;
    if (b >= h.upper_bounds.size()) {
      return h.upper_bounds.back();  // overflow bucket: last finite bound
    }
    const double lo = b == 0 ? 0.0 : h.upper_bounds[b - 1];
    const double hi = h.upper_bounds[b];
    const double j = static_cast<double>(k - (cum - h.counts[b]));
    return lo + (hi - lo) * (j - 0.5) / static_cast<double>(h.counts[b]);
  }
  return h.upper_bounds.back();
}

}  // namespace gnsslna::obs
