// Process-global observability primitives: named counters, gauges, and
// fixed-bucket power-of-two latency histograms behind one MetricsRegistry,
// plus a stable Prometheus-style text exposition. This is the unified
// metrics model ROADMAP's tuning line reads its numbers from — the synthesis
// stages, the serving tier, the persistence layer, and the net server all
// publish here, and a live MappingServer exposes the whole set over the
// wire as a MetricsText response (net/wire.h).
//
// Design:
//   - Registration is mutex-guarded and returns a STABLE pointer that lives
//     for the process: call-site code registers once (a function-local
//     static) and the hot path is a single relaxed atomic add — no locks,
//     no lookups, no allocation.
//   - The histogram generalizes the one hand-rolled in net/server.cc:
//     kHistogramBuckets power-of-two microsecond buckets where bucket
//     bit_width(v) holds [2^(b-1), 2^b), bucket 0 holds exactly {0}, and the
//     last bucket absorbs everything above 2^(kHistogramBuckets-2).
//     Quantiles are bucket-upper-bound estimates with ~2x relative error —
//     identical math to the server's BucketQuantile, so wire-reported
//     p50/p99 do not change shape.
//   - Reads are snapshot-on-read: Snapshot()/Value() observe each atomic
//     once (relaxed); a snapshot taken during concurrent writes is some
//     valid interleaving, never a torn value.
//   - ExpositionText() renders every registered series sorted by series
//     key, so two scrapes of identical registry state are byte-identical
//     (the wire test asserts this).
//
// Sharding: per-shard instances of the same Histogram type merged at read
// time (HistogramSnapshot::Merge) are the intended pattern for contended
// writers — net/server.h keeps one histogram per worker per request type
// and merges in GetStats(), exactly as it did with the hand-rolled arrays.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ms::obs {

/// Power-of-two microsecond buckets; 40 cover ~17 minutes, far past any
/// request timeout (same coverage net/server.cc chose).
inline constexpr size_t kHistogramBuckets = 40;

/// Monotonically increasing event count. Hot path: one relaxed fetch_add.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written instantaneous value (snapshot version, mapping count, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// One coherent read of a histogram — also the merge unit for sharded
/// (per-worker) instances.
struct HistogramSnapshot {
  uint64_t buckets[kHistogramBuckets] = {};
  uint64_t sum = 0;

  uint64_t TotalCount() const;
  void Merge(const HistogramSnapshot& other);

  /// Inclusive upper bound of bucket `b`: 0 for bucket 0, else 2^b - 1.
  static uint64_t BucketUpperBound(size_t b) {
    return b == 0 ? 0 : (uint64_t{1} << b) - 1;
  }

  /// Upper bound of the bucket where the cumulative count crosses rank
  /// `q * total` — an estimate with ~2x relative error (net/server.cc's
  /// BucketQuantile, verbatim semantics: 0.0 when empty; q >= 1.0 lands on
  /// 2^(kHistogramBuckets-1)).
  double Quantile(double q) const;
};

/// Fixed-bucket latency histogram. Record is lock-free: two relaxed adds.
class Histogram {
 public:
  void Record(uint64_t value) {
    const size_t b =
        std::min(static_cast<size_t>(std::bit_width(value)),
                 kHistogramBuckets - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

/// Renders series in the registry's exposition format — public so sources
/// that keep their own (sharded) storage, like the net server, can append
/// sections in the identical format. Series are emitted in call order; the
/// registry sorts before rendering, external users must emit
/// deterministically themselves.
class ExpositionBuilder {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  void Value(std::string_view name, const Labels& labels, uint64_t v);
  void Value(std::string_view name, const Labels& labels, int64_t v);
  /// Histogram exposition: cumulative `name_bucket{...,le="..."}` lines for
  /// every non-empty bucket plus le="+Inf", then name_sum / name_count.
  void Histo(std::string_view name, const Labels& labels,
             const HistogramSnapshot& snap);
  std::string Take() && { return std::move(out_); }

  /// `name{k="v",...}` with labels sorted by key — the registry's series
  /// identity and the exposition's sample name.
  static std::string SeriesKey(std::string_view name, const Labels& labels);

 private:
  std::string out_;
};

/// The process-global registry. Get* registers on first use (mutex-guarded)
/// and returns the same stable pointer for the same (name, labels) series
/// forever after. A name re-registered as a different metric kind is a
/// call-site bug: the call logs an error and returns a fresh detached
/// instance (valid but never exported) instead of aliasing mismatched
/// storage.
class MetricsRegistry {
 public:
  using Labels = ExpositionBuilder::Labels;

  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name, const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, const Labels& labels = {});
  Histogram* GetHistogram(std::string_view name, const Labels& labels = {});

  /// Every registered series, sorted by series key — byte-identical across
  /// calls when no metric moved in between.
  std::string ExpositionText() const;

  /// Zeroes every registered value (pointers stay valid). The registry is
  /// process-global, so tests and benches isolate phases with this rather
  /// than by tearing it down.
  void ResetForTests();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;  ///< bare metric name (no labels)
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* GetEntry(std::string_view name, const Labels& labels, Kind kind);

  mutable std::mutex mu_;
  /// Keyed by SeriesKey → sorted iteration gives the stable exposition.
  /// Entries are never erased and never change after insertion, so a
  /// pointer taken under mu_ stays readable after it is released.
  std::map<std::string, Entry> series_;
  /// Kind-mismatch orphans: valid storage, never exported.
  std::vector<std::unique_ptr<Entry>> orphans_;
};

}  // namespace ms::obs
