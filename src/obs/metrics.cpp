#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>

namespace apc::obs {

namespace {
std::atomic<bool> g_enabled{true};

/// JSON string escaping for metric names (conservative: names are
/// dotted identifiers, but render anything safely).
void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

double LatencyHistogram::quantile(double q) const {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t counts[kBuckets + 1];
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  // Rank of the q-th value (1-based), then the bucket containing it.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(
                                     q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b <= kBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) {
      if (b == 0) return 0.0;
      // Bucket b covers [2^(b-1), 2^b); report its arithmetic midpoint,
      // 1.5x the lower edge, clamped to the observed maximum (the clamp
      // only bites in the bucket that holds the maximum).
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      const double mid = lo * 1.5;
      const double mx = static_cast<double>(max());
      return mx > 0.0 ? std::min(mid, mx) : mid;
    }
  }
  return static_cast<double>(max());
}

LatencyHistogram::Summary LatencyHistogram::summary() const {
  Summary s;
  s.count = count();
  s.mean = mean();
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  s.max = static_cast<double>(max());
  return s;
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += "  {\"name\": \"";
    append_escaped(out, r.name);
    out += "\", \"value\": ";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.10g", r.value);
    out += buf;
    out += ", \"unit\": \"";
    append_escaped(out, r.unit);
    out += "\"}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

const MetricsSnapshot::Row* MetricsSnapshot::find(const std::string& name) const {
  for (const Row& r : rows)
    if (r.name == name) return &r;
  return nullptr;
}

void MetricsRegistry::register_counter(std::string name, const Counter* c,
                                       std::string unit) {
  entries_.push_back(
      {Entry::Kind::kCounter, std::move(name), std::move(unit), c, nullptr,
       nullptr, 1.0, nullptr, nullptr});
}

void MetricsRegistry::register_gauge(std::string name, const Gauge* g,
                                     std::string unit) {
  entries_.push_back(
      {Entry::Kind::kGauge, std::move(name), std::move(unit), nullptr, g,
       nullptr, 1.0, nullptr, nullptr});
}

void MetricsRegistry::register_histogram(std::string name,
                                         const LatencyHistogram* h,
                                         std::string unit, double scale) {
  entries_.push_back(
      {Entry::Kind::kHistogram, std::move(name), std::move(unit), nullptr,
       nullptr, h, scale, nullptr, nullptr});
}

void MetricsRegistry::register_fn(std::string name, std::function<double()> fn,
                                  std::string unit) {
  entries_.push_back(
      {Entry::Kind::kFn, std::move(name), std::move(unit), nullptr, nullptr,
       nullptr, 1.0, std::move(fn), nullptr});
}

void MetricsRegistry::register_sub(std::string prefix, const MetricsRegistry* sub) {
  entries_.push_back(
      {Entry::Kind::kSub, std::move(prefix), "", nullptr, nullptr, nullptr,
       1.0, nullptr, sub});
}

void MetricsRegistry::collect(const std::string& prefix,
                              MetricsSnapshot& out) const {
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Entry::Kind::kCounter:
        out.rows.push_back({prefix + e.name,
                            static_cast<double>(e.counter->value()), e.unit});
        break;
      case Entry::Kind::kGauge:
        out.rows.push_back(
            {prefix + e.name, static_cast<double>(e.gauge->value()), e.unit});
        break;
      case Entry::Kind::kHistogram: {
        const LatencyHistogram::Summary s = e.hist->summary();
        const std::string base = prefix + e.name;
        out.rows.push_back({base + ".count", static_cast<double>(s.count), "count"});
        out.rows.push_back({base + ".mean", s.mean * e.scale, e.unit});
        out.rows.push_back({base + ".p50", s.p50 * e.scale, e.unit});
        out.rows.push_back({base + ".p95", s.p95 * e.scale, e.unit});
        out.rows.push_back({base + ".p99", s.p99 * e.scale, e.unit});
        out.rows.push_back({base + ".max", s.max * e.scale, e.unit});
        break;
      }
      case Entry::Kind::kFn:
        out.rows.push_back({prefix + e.name, e.fn(), e.unit});
        break;
      case Entry::Kind::kSub:
        e.sub->collect(prefix + e.name, out);
        break;
    }
  }
}

void MetricsRegistry::collect_names(const std::string& prefix,
                                    std::vector<std::string>& out) const {
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Entry::Kind::kHistogram:
        for (const char* suffix :
             {".count", ".mean", ".p50", ".p95", ".p99", ".max"})
          out.push_back(prefix + e.name + suffix);
        break;
      case Entry::Kind::kSub:
        e.sub->collect_names(prefix + e.name, out);
        break;
      default:
        out.push_back(prefix + e.name);
        break;
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  collect("", out);
  return out;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  collect_names("", out);
  return out;
}

}  // namespace apc::obs
