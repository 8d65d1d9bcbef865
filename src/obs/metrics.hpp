// Low-overhead observability primitives (metrics, histograms, registry).
//
// The paper's operational story (SS VI-A/B, Figs. 8/14) turns on runtime
// signals — query throughput, update counts, tree degradation — that the
// system must measure about itself.  This header provides the layer every
// subsystem records into:
//
//   * Counter / Gauge       — relaxed-atomic scalars; an increment is one
//                             uncontended atomic add, safe from any thread.
//   * LatencyHistogram      — log2-bucketed value histogram (one atomic
//                             counter per power-of-two bucket) answering
//                             count/mean/p50/p95/p99/max.  Recording is two
//                             relaxed adds plus a CAS-free max update; no
//                             locks, no allocation, TSan-clean.
//   * ScopedTimer           — RAII wall-clock probe recording nanoseconds
//                             into a LatencyHistogram on destruction.
//   * MetricsRegistry       — names metrics and renders them as rows or
//                             JSON.  Registration is writer-side; reading
//                             (snapshot()/to_json()) only loads atomics.
//
// Off-switches.  Runtime: obs::set_enabled(false) makes ScopedTimer and
// histogram recording no-ops (one relaxed load to check).  Compile time:
// building with -DAPC_OBS_DISABLED compiles every record/add body away while
// keeping the API, for hot paths that must carry zero instructions.  The
// design keeps the *query* hot path clean either way: the engine times whole
// batches, never individual packets, and BDD/op-cache counters live on the
// construction path only.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace apc::obs {

#if defined(APC_OBS_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Runtime master switch for the *recording* side (timers/histograms).
/// Plain counters stay live — a relaxed add costs less than the branch that
/// would gate it.  Defaults to enabled.
bool enabled();
void set_enabled(bool on);

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if constexpr (kCompiledIn) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A signed scalar with set/add semantics plus a monotonic-max helper
/// (queue-depth high-water marks and the like).
class Gauge {
 public:
  void set(std::int64_t v) {
    if constexpr (kCompiledIn) v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) {
    if constexpr (kCompiledIn) v_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if above the current value (lock-free CAS loop).
  void update_max(std::int64_t v) {
    if constexpr (kCompiledIn) {
      std::int64_t cur = v_.load(std::memory_order_relaxed);
      while (v > cur &&
             !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      }
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram over unsigned values.  Bucket b holds values
/// whose bit width is b (i.e. [2^(b-1), 2^b) for b >= 1; bucket 0 holds 0),
/// so quantiles carry at most a 2x bucket error — plenty for latency
/// percentiles spanning nanoseconds to seconds.  All state is relaxed
/// atomics: record() from any number of threads, read any time.
///
/// Values are unit-agnostic; the latency helpers store nanoseconds and the
/// seconds-flavored accessors convert back.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t value) {
    if constexpr (kCompiledIn) {
      if (!enabled()) return;
      buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
      sum_.fetch_add(value, std::memory_order_relaxed);
      std::uint64_t cur = max_.load(std::memory_order_relaxed);
      while (value > cur &&
             !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
      }
    }
  }
  void record_seconds(double s) {
    record(s <= 0.0 ? 0 : static_cast<std::uint64_t>(s * 1e9));
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }

  /// Quantile estimate (q in [0, 1]): 1.5x the lower edge of the bucket
  /// containing the q-th recorded value (the bucket's arithmetic midpoint),
  /// clamped to the observed maximum.  Exact for the bucket; within it the
  /// estimate is -25% to +50% off the true value.  Returns 0 when empty.
  double quantile(double q) const;

  struct Summary {
    std::uint64_t count = 0;
    double mean = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
  };
  /// One consistent-enough read of all derived stats (individual loads are
  /// relaxed; concurrent recording may skew a still-accumulating summary).
  Summary summary() const;

  void reset();

 private:
  static std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));  // 0 -> 0, else 1..64
  }

  std::array<std::atomic<std::uint64_t>, kBuckets + 1> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII wall-clock timer recording elapsed *nanoseconds* into a histogram
/// when destroyed.  Checks the runtime switch once, at construction; dismiss()
/// cancels recording.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& h)
      : hist_(&h), armed_(kCompiledIn && enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (armed_)
      hist_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  void dismiss() { armed_ = false; }

 private:
  LatencyHistogram* hist_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// Derives queries-per-second between sample() calls from a monotonically
/// increasing Counter — the engine-measured throughput signal that feeds
/// ReconstructionPolicy::record_throughput (Fig. 14 trigger loop).
class QpsMeter {
 public:
  explicit QpsMeter(const Counter& c)
      : counter_(&c), last_count_(c.value()),
        last_time_(std::chrono::steady_clock::now()) {}

  /// QPS since the previous sample() (or construction).  Returns 0 when no
  /// time has passed.
  double sample() {
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t n = counter_->value();
    const double dt = std::chrono::duration<double>(now - last_time_).count();
    const double qps =
        dt > 0.0 ? static_cast<double>(n - last_count_) / dt : 0.0;
    last_count_ = n;
    last_time_ = now;
    return qps;
  }

 private:
  const Counter* counter_;
  std::uint64_t last_count_;
  std::chrono::steady_clock::time_point last_time_;
};

/// A point-in-time read of a registry: plain rows, renderable as JSON.
struct MetricsSnapshot {
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Row> rows;

  /// `[{"name": "...", "value": v, "unit": "..."}, ...]` — same row shape
  /// the bench harnesses emit, so BENCH_*.json and stats() speak one format.
  std::string to_json() const;
  /// First row with this exact name, or nullptr.
  const Row* find(const std::string& name) const;
};

/// Names metrics owned elsewhere and renders them.  register_* calls happen
/// while the owner is being constructed (single-threaded); snapshot() may be
/// called from any thread afterwards — it only loads atomics and invokes
/// registered callbacks.  Callback metrics (register_fn) read arbitrary
/// state: register only callbacks that are safe wherever snapshot() is
/// called (e.g. under the owner's writer lock).
class MetricsRegistry {
 public:
  void register_counter(std::string name, const Counter* c,
                        std::string unit = "count");
  void register_gauge(std::string name, const Gauge* g,
                      std::string unit = "count");
  /// Expands into <name>.count/.mean/.p50/.p95/.p99/.max rows.  `scale`
  /// multiplies recorded values into `unit` (e.g. 1e-9 for ns -> seconds).
  void register_histogram(std::string name, const LatencyHistogram* h,
                          std::string unit = "seconds", double scale = 1e-9);
  /// A computed scalar (table sizes, ages, non-atomic stats read under the
  /// caller's locking discipline).
  void register_fn(std::string name, std::function<double()> fn,
                   std::string unit = "count");
  /// Includes every metric of `sub` under `prefix` + its name.  `sub` must
  /// outlive this registry.
  void register_sub(std::string prefix, const MetricsRegistry* sub);

  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }
  /// All row names a snapshot() will produce (the metric inventory).
  std::vector<std::string> names() const;

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram, kFn, kSub } kind;
    std::string name;
    std::string unit;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const LatencyHistogram* hist = nullptr;
    double scale = 1.0;
    std::function<double()> fn;
    const MetricsRegistry* sub = nullptr;
  };
  void collect(const std::string& prefix, MetricsSnapshot& out) const;
  void collect_names(const std::string& prefix,
                     std::vector<std::string>& out) const;

  std::vector<Entry> entries_;
};

}  // namespace apc::obs
