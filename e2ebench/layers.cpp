// Layer accounting for the traced runs: reads the obs span capture back
// and turns per-thread begin/end intervals into self and inclusive time
// per span name, plus the small statistics helpers the workloads share.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "obs/obs.h"

namespace e2ebench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

struct Interval {
  std::uint32_t name = 0;
  std::int64_t start = 0;  ///< ns from the capture origin
  std::int64_t end = 0;
};

/// Extracts `"key": value` from one trace-event line; false if absent.
bool field(const std::string& line, const char* key, std::string* out) {
  const std::string pat = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return false;
  std::size_t b = at + pat.size();
  std::size_t e = b;
  if (line[b] == '"') {
    e = line.find('"', ++b);
  } else {
    while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  }
  if (e == std::string::npos) return false;
  *out = line.substr(b, e - b);
  return true;
}

}  // namespace

bool drain_span_capture(const std::string& scratch_dir, SpanTable* table) {
  const std::string path = scratch_dir + "/e2ebench_spans.json";
  const bool written = gnsslna::obs::write_span_trace(path);
  gnsslna::obs::clear_span_capture();
  if (!written) return false;

  std::ifstream in(path);
  if (!in) return false;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint32_t> name_ids;
  std::map<unsigned long, std::vector<Interval>> by_thread;
  std::string line, name, tid, ts, dur;
  while (std::getline(in, line)) {
    if (!field(line, "name", &name) || !field(line, "tid", &tid) ||
        !field(line, "ts", &ts) || !field(line, "dur", &dur)) {
      continue;
    }
    const auto [it, added] =
        name_ids.emplace(name, static_cast<std::uint32_t>(names.size()));
    if (added) names.push_back(name);
    // ts/dur are microseconds with nanosecond decimals: exact in ns.
    const std::int64_t s = std::llround(std::stod(ts) * 1e3);
    const std::int64_t d = std::llround(std::stod(dur) * 1e3);
    by_thread[std::stoul(tid)].push_back({it->second, s, s + d});
  }
  in.close();
  std::remove(path.c_str());

  // Per thread, spans nest: sort by start (outer first on ties) and keep a
  // stack of open intervals; each span's duration is charged to its
  // parent's child time.
  std::vector<double> child_ns;
  for (auto& [thread, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) {
                return a.start != b.start ? a.start < b.start : a.end > b.end;
              });
    child_ns.assign(spans.size(), 0.0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()].end <= spans[i].start) {
        open.pop_back();
      }
      if (!open.empty() && spans[i].end <= spans[open.back()].end) {
        child_ns[open.back()] +=
            static_cast<double>(spans[i].end - spans[i].start);
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = (*table)[names[spans[i].name]];
      const double d = static_cast<double>(spans[i].end - spans[i].start);
      ++t.count;
      t.incl_ns += d;
      t.self_ns += std::max(0.0, d - child_ns[i]);
    }
  }
  return true;
}

}  // namespace e2ebench
