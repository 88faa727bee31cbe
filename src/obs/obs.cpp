#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.h"

namespace gnsslna::obs {

namespace {

// Fixed capacities: registration throws past these, which surfaces at the
// new instrumentation site's first execution, never silently.
constexpr std::size_t kMaxCounters = 192;
constexpr std::size_t kMaxSpans = 64;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 32;
constexpr std::size_t kMaxBuckets = 64;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanEvent {
  std::uint32_t id = 0;
  std::uint32_t tid = 0;       ///< shard registration index (stable per run)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t job = 0;       ///< owning service job id; 0 = none
};

struct Shard;
struct EventBuffer;

/// Dense ids of one instrument kind, in first-registration order.
struct NameTable {
  std::size_t capacity;
  const char* kind;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint32_t> ids;
};

struct HistogramSlot {
  std::vector<double> upper_bounds;
  // counts[i] covers (bounds[i-1], bounds[i]]; the last slot is +Inf.
  std::atomic<std::uint64_t> counts[kMaxBuckets + 1] = {};
  std::atomic<std::int64_t> sum{0};
};

/// The one registry of every instrument kind.  Leaked singleton: worker
/// threads (and their thread-local shards) may outlive every other static,
/// so it must never be destroyed.
struct Registry {
  std::mutex mutex;

  NameTable counters{kMaxCounters, "counter", {}, {}};
  NameTable spans{kMaxSpans, "span", {}, {}};
  NameTable gauges{kMaxGauges, "gauge", {}, {}};
  NameTable histograms{kMaxHistograms, "histogram", {}, {}};

  std::vector<Shard*> shards;
  std::uint64_t retired_counters[kMaxCounters] = {};
  std::uint64_t retired_span_count[kMaxSpans] = {};
  std::uint64_t retired_span_ns[kMaxSpans] = {};

  // Gauges and histograms are low-frequency, process-global atomics.
  std::atomic<std::int64_t> gauge_values[kMaxGauges] = {};
  HistogramSlot histogram_slots[kMaxHistograms];

  std::vector<EventBuffer*> event_buffers;
  std::vector<SpanEvent> retired_events;
  std::uint32_t next_shard_tid = 0;

  static Registry& get() {
    static Registry* g = new Registry;  // intentionally leaked
    return *g;
  }
};

/// Per-thread slot arrays.  Each slot is written only by its owning thread
/// (relaxed load+store, no RMW needed), and read by snapshots — atomics
/// make that pattern race-free and TSan-clean.
struct Shard {
  std::atomic<std::uint64_t> counters[kMaxCounters] = {};
  std::atomic<std::uint64_t> span_count[kMaxSpans] = {};
  std::atomic<std::uint64_t> span_ns[kMaxSpans] = {};
  std::uint32_t tid = 0;

  Shard() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    tid = r.next_shard_tid++;
    r.shards.push_back(this);
  }

  ~Shard() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      r.retired_counters[i] += counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxSpans; ++i) {
      r.retired_span_count[i] +=
          span_count[i].load(std::memory_order_relaxed);
      r.retired_span_ns[i] += span_ns[i].load(std::memory_order_relaxed);
    }
    r.shards.erase(std::find(r.shards.begin(), r.shards.end(), this));
  }

  void bump(std::atomic<std::uint64_t>& slot, std::uint64_t n) {
    // Single-writer: plain load+store instead of a locked fetch_add.
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
};

Shard& local_shard() {
  thread_local Shard shard;
  return shard;
}

/// Captured span events of one thread.  Registered like shards; retired
/// events are moved into the registry on thread exit so traces survive
/// short-lived threads.
struct EventBuffer {
  std::vector<SpanEvent> events;

  EventBuffer() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.event_buffers.push_back(this);
  }

  ~EventBuffer() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.retired_events.insert(r.retired_events.end(), events.begin(),
                            events.end());
    r.event_buffers.erase(
        std::find(r.event_buffers.begin(), r.event_buffers.end(), this));
  }
};

EventBuffer& local_events() {
  thread_local EventBuffer buffer;
  return buffer;
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "on") == 0;
}

std::atomic<bool> g_enabled{env_flag("GNSSLNA_OBS")};
std::atomic<bool> g_deterministic{env_flag("GNSSLNA_OBS_DETERMINISTIC")};
std::atomic<bool> g_capture{false};

thread_local JobTrace* t_job_trace = nullptr;

/// The one name -> id registration for every instrument kind: idempotent
/// (a name keeps its first id), throws past the kind's capacity.  `on_new`
/// runs under the registry lock for a freshly assigned id.
template <typename OnNew>
std::uint32_t register_name(NameTable& table, const char* name,
                            OnNew on_new) {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = table.ids.find(name);
  if (it != table.ids.end()) return it->second;
  if (table.names.size() >= table.capacity) {
    throw std::length_error(std::string("obs: too many ") + table.kind +
                            " registrations (raise kMax in obs.cpp)");
  }
  const std::uint32_t id = static_cast<std::uint32_t>(table.names.size());
  table.names.emplace_back(name);
  table.ids.emplace(name, id);
  on_new(id);
  return id;
}

std::uint32_t register_name(NameTable& table, const char* name) {
  return register_name(table, name, [](std::uint32_t) {});
}

/// Shard-merged counter totals in id order; caller holds the lock.
std::vector<CounterValue> counters_locked(const Registry& r) {
  std::vector<CounterValue> out(r.counters.names.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].name = r.counters.names[i];
    out[i].value = r.retired_counters[i];
  }
  for (const Shard* s : r.shards) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].value += s->counters[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

/// Zeroes every gauge and histogram; caller holds the lock.
void zero_gauges_and_histograms(Registry& r) {
  for (std::atomic<std::int64_t>& g : r.gauge_values) {
    g.store(0, std::memory_order_relaxed);
  }
  for (HistogramSlot& h : r.histogram_slots) {
    for (std::atomic<std::uint64_t>& c : h.counts) {
      c.store(0, std::memory_order_relaxed);
    }
    h.sum.store(0, std::memory_order_relaxed);
  }
}

template <typename T>
void sort_by_name(std::vector<T>* v) {
  std::sort(v->begin(), v->end(),
            [](const T& a, const T& b) { return a.name < b.name; });
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool deterministic() { return g_deterministic.load(std::memory_order_relaxed); }

void set_deterministic(bool on) {
  g_deterministic.store(on, std::memory_order_relaxed);
}

Counter::Counter(const char* name)
    : id_(register_name(Registry::get().counters, name)) {}

void Counter::add(std::uint64_t n) const {
  if (!enabled()) return;
  Shard& s = local_shard();
  s.bump(s.counters[id_], n);
}

SpanCategory::SpanCategory(const char* name)
    : id_(register_name(Registry::get().spans, name)) {}

Span::Span(const SpanCategory& category) {
  if (!enabled()) return;
  id_ = category.id();
  start_ns_ = now_ns();
  active_ = true;
  if (JobTrace* t = t_job_trace) {
    // Record at OPEN so parents precede children in seq order; the
    // duration is filled at close.
    trace_index_ = static_cast<std::int32_t>(t->records.size());
    t->records.push_back({id_, t->next_seq++, t->depth++, 0});
  }
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  Shard& s = local_shard();
  s.bump(s.span_count[id_], 1);
  s.bump(s.span_ns[id_], end - start_ns_);
  std::uint64_t job = 0;
  if (trace_index_ >= 0) {
    if (JobTrace* t = t_job_trace) {
      t->records[static_cast<std::size_t>(trace_index_)].dur_ns =
          end - start_ns_;
      if (t->depth > 0) --t->depth;
      job = t->job_id;
    }
  }
  if (g_capture.load(std::memory_order_relaxed)) {
    local_events().events.push_back({id_, s.tid, start_ns_, end, job});
  }
}

ScopedJobTrace::ScopedJobTrace(JobTrace* trace) : prev_(t_job_trace) {
  t_job_trace = trace;
}

ScopedJobTrace::~ScopedJobTrace() { t_job_trace = prev_; }

JobTrace* current_job_trace() { return t_job_trace; }

void job_trace_event(const SpanCategory& category, std::uint64_t dur_ns) {
  if (!enabled()) return;
  JobTrace* t = t_job_trace;
  if (t == nullptr) return;
  t->records.push_back({category.id(), t->next_seq++, t->depth, dur_ns});
}

std::vector<CounterValue> counter_snapshot() {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return counters_locked(r);
}

std::vector<SpanStat> span_snapshot() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<SpanStat> out(r.spans.names.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].name = r.spans.names[i];
    out[i].count = r.retired_span_count[i];
    out[i].total_ns = r.retired_span_ns[i];
  }
  for (const Shard* s : r.shards) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].count += s->span_count[i].load(std::memory_order_relaxed);
      out[i].total_ns += s->span_ns[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::vector<std::string> counter_names() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.counters.names;
}

std::vector<std::string> span_names() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.spans.names;
}

std::size_t counter_capacity() { return kMaxCounters; }

void read_local_counters(std::uint64_t* out, std::size_t n) {
  Shard& s = local_shard();
  const std::size_t m = n < kMaxCounters ? n : kMaxCounters;
  for (std::size_t i = 0; i < m; ++i) {
    out[i] = s.counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = m; i < n; ++i) out[i] = 0;
}

std::vector<CounterValue> counter_delta(const std::vector<CounterValue>& a,
                                        const std::vector<CounterValue>& b) {
  std::vector<CounterValue> out;
  out.reserve(a.size());
  for (const CounterValue& va : a) {
    std::uint64_t base = 0;
    for (const CounterValue& vb : b) {
      if (vb.name == va.name) {
        base = vb.value;
        break;
      }
    }
    out.push_back({va.name, va.value - base});
  }
  return out;
}

void reset() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::fill(std::begin(r.retired_counters), std::end(r.retired_counters),
            std::uint64_t{0});
  std::fill(std::begin(r.retired_span_count), std::end(r.retired_span_count),
            std::uint64_t{0});
  std::fill(std::begin(r.retired_span_ns), std::end(r.retired_span_ns),
            std::uint64_t{0});
  for (Shard* s : r.shards) {
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      s->counters[i].store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxSpans; ++i) {
      s->span_count[i].store(0, std::memory_order_relaxed);
      s->span_ns[i].store(0, std::memory_order_relaxed);
    }
  }
  zero_gauges_and_histograms(r);
}

void metrics_reset() {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mutex);
  zero_gauges_and_histograms(r);
}

Gauge::Gauge(const char* name)
    : id_(register_name(Registry::get().gauges, name)) {}

void Gauge::set(std::int64_t v) const {
  if (!enabled()) return;
  Registry::get().gauge_values[id_].store(v, std::memory_order_relaxed);
}

void Gauge::add(std::int64_t d) const {
  if (!enabled()) return;
  Registry::get().gauge_values[id_].fetch_add(d, std::memory_order_relaxed);
}

Histogram::Histogram(const char* name, std::vector<double> upper_bounds) {
  if (upper_bounds.empty() || upper_bounds.size() > kMaxBuckets ||
      !std::is_sorted(upper_bounds.begin(), upper_bounds.end())) {
    throw std::invalid_argument(
        "obs: histogram bounds must be ascending, 1..kMaxBuckets long");
  }
  Registry& r = Registry::get();
  id_ = register_name(r.histograms, name, [&](std::uint32_t id) {
    r.histogram_slots[id].upper_bounds = std::move(upper_bounds);
  });
}

void Histogram::observe(double value) const {
  if (!enabled()) return;
  HistogramSlot& slot = Registry::get().histogram_slots[id_];
  // Prometheus bucket semantics: counts[i] is the first bound >= value.
  const auto it = std::lower_bound(slot.upper_bounds.begin(),
                                   slot.upper_bounds.end(), value);
  const std::size_t b =
      static_cast<std::size_t>(it - slot.upper_bounds.begin());
  slot.counts[b].fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(std::llround(value), std::memory_order_relaxed);
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot out;
  {
    Registry& r = Registry::get();
    const std::lock_guard<std::mutex> lock(r.mutex);
    out.counters = counters_locked(r);
    for (std::size_t i = 0; i < r.gauges.names.size(); ++i) {
      out.gauges.push_back(
          {r.gauges.names[i],
           r.gauge_values[i].load(std::memory_order_relaxed)});
    }
    for (std::size_t i = 0; i < r.histograms.names.size(); ++i) {
      const HistogramSlot& slot = r.histogram_slots[i];
      HistogramValue h;
      h.name = r.histograms.names[i];
      h.upper_bounds = slot.upper_bounds;
      h.counts.resize(slot.upper_bounds.size() + 1);
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        h.counts[b] = slot.counts[b].load(std::memory_order_relaxed);
        h.total += h.counts[b];
      }
      h.sum = slot.sum.load(std::memory_order_relaxed);
      out.histograms.push_back(std::move(h));
    }
  }
  sort_by_name(&out.counters);
  sort_by_name(&out.gauges);
  sort_by_name(&out.histograms);
  return out;
}

void start_span_capture() {
  g_capture.store(true, std::memory_order_relaxed);
}

void stop_span_capture() {
  g_capture.store(false, std::memory_order_relaxed);
}

bool span_capture_running() {
  return g_capture.load(std::memory_order_relaxed);
}

void clear_span_capture() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.retired_events.clear();
  for (EventBuffer* b : r.event_buffers) b->events.clear();
}

bool write_span_trace(const std::string& path, bool deterministic) {
  std::vector<SpanEvent> events;
  std::vector<std::string> names;
  {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    events = r.retired_events;
    for (const EventBuffer* b : r.event_buffers) {
      events.insert(events.end(), b->events.begin(), b->events.end());
    }
    names = r.spans.names;
  }
  if (deterministic) {
    // Strip wall-clock and thread placement; order by (name id, owning job)
    // with the original per-thread sequence collapsed by a stable sort, so
    // the file depends only on WHAT ran, not when or where.  Events that
    // agree on (id, job) serialize to identical rows, so the residual
    // interleaving order cannot leak into the bytes.
    std::stable_sort(events.begin(), events.end(),
                     [](const SpanEvent& a, const SpanEvent& b) {
                       return a.id != b.id ? a.id < b.id : a.job < b.job;
                     });
    for (SpanEvent& e : events) {
      e.tid = 0;
      e.start_ns = 0;
      e.end_ns = 0;
    }
  } else {
    std::stable_sort(events.begin(), events.end(),
                     [](const SpanEvent& a, const SpanEvent& b) {
                       return a.start_ns < b.start_ns;
                     });
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return false;
  }
  // Chrome trace-event "X" (complete) events; ts/dur are microseconds.
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::uint64_t origin = events.empty() ? 0 : events.front().start_ns;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    const double ts = static_cast<double>(e.start_ns - origin) / 1e3;
    const double dur = static_cast<double>(e.end_ns - e.start_ns) / 1e3;
    if (e.job != 0) {
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"job\": %llu}}%s\n",
                   e.id < names.size() ? names[e.id].c_str() : "?", e.tid, ts,
                   dur, static_cast<unsigned long long>(e.job),
                   i + 1 < events.size() ? "," : "");
    } else {
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                   e.id < names.size() ? names[e.id].c_str() : "?", e.tid, ts,
                   dur, i + 1 < events.size() ? "," : "");
    }
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return true;
}

}  // namespace gnsslna::obs
