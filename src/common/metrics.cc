#include "src/common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/common/json.h"

namespace tetrisched {

namespace metrics_internal {
std::atomic<bool> g_observability_enabled{false};
}  // namespace metrics_internal

void SetObservabilityEnabled(bool enabled) {
  metrics_internal::g_observability_enabled.store(enabled,
                                                  std::memory_order_relaxed);
}

namespace {

constexpr double kHistInfinity = std::numeric_limits<double>::infinity();

// fetch_add for atomic<double> without relying on C++20 library support.
void AtomicAdd(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double x) {
  double cur = target.load(std::memory_order_relaxed);
  while (x < cur && !target.compare_exchange_weak(cur, x,
                                                  std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double x) {
  double cur = target.load(std::memory_order_relaxed);
  while (x > cur && !target.compare_exchange_weak(cur, x,
                                                  std::memory_order_relaxed)) {
  }
}

std::string FormatNumber(double v) {
  if (std::isinf(v)) {
    return v > 0 ? "1e999" : "-1e999";  // JSON has no Infinity literal
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

double HistogramSnapshot::Percentile(double p) const {
  if (count <= 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  double target = (p / 100.0) * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    int64_t in_bucket = buckets[b];
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(cumulative + in_bucket) < target) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate within [lo, hi], using the observed extrema for the two
    // half-open end buckets.
    double lo = b == 0 ? min : bounds[b - 1];
    double hi = b < bounds.size() ? bounds[b] : max;
    lo = std::clamp(lo, min, max);
    hi = std::clamp(hi, min, max);
    double frac =
        (target - static_cast<double>(cumulative)) / in_bucket;
    return std::clamp(lo + frac * (hi - lo), min, max);
  }
  return max;
}

// Infinity sentinels make concurrent extremum tracking race-free: the CAS
// ordering predicate is correct from the very first observation. Snapshot()
// maps them back to 0 for the count == 0 case.
Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
  min_.store(kHistInfinity, std::memory_order_relaxed);
  max_.store(-kHistInfinity, std::memory_order_relaxed);
}

void Histogram::Observe(double x) {
  // Prometheus `le` semantics: bucket b counts bounds[b-1] < x <= bounds[b],
  // so a value equal to a bound lands in that bound's bucket.
  size_t b = std::lower_bound(bounds_.begin(), bounds_.end(), x) -
             bounds_.begin();
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, x);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicMin(min_, x);
  AtomicMax(max_, x);
}

HistogramSnapshot Histogram::Snapshot(const std::string& name) const {
  HistogramSnapshot snap;
  snap.name = name;
  snap.bounds = bounds_;
  snap.buckets.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    snap.buckets.push_back(bucket.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  if (snap.count == 0) {
    snap.min = 0.0;
    snap.max = 0.0;
  }
  return snap;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kHistInfinity, std::memory_order_relaxed);
  max_.store(-kHistInfinity, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double> kBuckets = {
      0.01, 0.02, 0.05, 0.1,  0.2,  0.5,   1.0,   2.0,   5.0,    10.0,
      20.0, 50.0, 100., 200., 500., 1000., 2000., 5000., 10000.};
  return kBuckets;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(bounds);
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back(histogram->Snapshot(name));
  }
  return snap;
}

namespace {

// Instrument names may embed Prometheus labels ("name{k=\"v\"}"); the TYPE
// comment line must carry the bare metric name.
std::string PromBaseName(const std::string& name) {
  size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

}  // namespace

std::string MetricsRegistry::ToPrometheusText() const {
  MetricsSnapshot snap = Snapshot();
  std::string out;
  // Consecutive series of one family (its bare name, then its labelled
  // series, in name order) share one TYPE line.
  std::string family;
  auto type_line = [&](const std::string& name, const char* type) {
    if (PromBaseName(name) != family) {
      family = PromBaseName(name);
      out += "# TYPE " + family + " " + type + "\n";
    }
  };
  for (const auto& [name, value] : snap.counters) {
    type_line(name, "counter");
    out += name + " " + std::to_string(value) + "\n";
  }
  family.clear();
  for (const auto& [name, value] : snap.gauges) {
    type_line(name, "gauge");
    out += name + " " + FormatNumber(value) + "\n";
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    int64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      std::string le =
          b < h.bounds.size() ? FormatNumber(h.bounds[b]) : "+Inf";
      out += h.name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += h.name + "_sum " + FormatNumber(h.sum) + "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  MetricsSnapshot snap = Snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": " + FormatNumber(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& h : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(h.name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + FormatNumber(h.sum) +
           ", \"mean\": " + FormatNumber(h.Mean()) +
           ", \"min\": " + FormatNumber(h.min) +
           ", \"p50\": " + FormatNumber(h.Percentile(50)) +
           ", \"p95\": " + FormatNumber(h.Percentile(95)) +
           ", \"p99\": " + FormatNumber(h.Percentile(99)) +
           ", \"max\": " + FormatNumber(h.max) + ",\n      \"buckets\": [";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) {
        out += ", ";
      }
      std::string le =
          b < h.bounds.size() ? FormatNumber(h.bounds[b]) : "\"+Inf\"";
      out += "{\"le\": " + le + ", \"count\": " +
             std::to_string(h.buckets[b]) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

// Captured at static-init time, close enough to process start for an
// uptime gauge.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

std::string BuildCompilerString() {
#if defined(__clang_major__)
  return "clang-" + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc-" + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

std::string BuildSanitizerString() {
  std::string out;
#if defined(__SANITIZE_ADDRESS__)
  out += "asan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  out += "asan";
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  out += out.empty() ? "tsan" : "+tsan";
#endif
  return out.empty() ? "none" : out;
}

}  // namespace

const std::string& BuildInfoMetricName() {
#ifndef TETRISCHED_VERSION
#define TETRISCHED_VERSION "dev"
#endif
  static const std::string name = "tetrisched_build_info{version=\"" +
                                  std::string(TETRISCHED_VERSION) +
                                  "\",compiler=\"" + BuildCompilerString() +
                                  "\",sanitizers=\"" +
                                  BuildSanitizerString() + "\"}";
  return name;
}

void UpdateProcessMetrics() {
  double uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - g_process_start)
                      .count();
  GlobalMetrics().GetGauge("tetrisched_process_uptime_seconds")->Set(uptime);
  GlobalMetrics().GetGauge(BuildInfoMetricName())->Set(1.0);
}

}  // namespace tetrisched
