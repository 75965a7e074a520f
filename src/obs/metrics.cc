#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace ms::obs {

namespace {

/// Label values are quoted strings; escape the three characters Prometheus
/// text format requires so arbitrary paths/messages stay one line.
void AppendEscaped(std::string* out, std::string_view v) {
  for (const char c : v) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

void AppendLabels(std::string* out, const ExpositionBuilder::Labels& labels) {
  if (labels.empty()) return;
  out->push_back('{');
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(labels[i].first);
    out->append("=\"");
    AppendEscaped(out, labels[i].second);
    out->push_back('"');
  }
  out->push_back('}');
}

ExpositionBuilder::Labels SortedLabels(ExpositionBuilder::Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

// ------------------------------------------------------------- histogram

uint64_t HistogramSnapshot::TotalCount() const {
  uint64_t total = 0;
  for (const uint64_t b : buckets) total += b;
  return total;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (size_t b = 0; b < kHistogramBuckets; ++b) buckets[b] += other.buckets[b];
  sum += other.sum;
}

double HistogramSnapshot::Quantile(double q) const {
  const uint64_t total = TotalCount();
  if (total == 0) return 0.0;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  uint64_t seen = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) return static_cast<double>(BucketUpperBound(b));
  }
  return static_cast<double>(uint64_t{1} << (kHistogramBuckets - 1));
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------------ exposition

std::string ExpositionBuilder::SeriesKey(std::string_view name,
                                         const Labels& labels) {
  std::string key(name);
  AppendLabels(&key, SortedLabels(labels));
  return key;
}

void ExpositionBuilder::Value(std::string_view name, const Labels& labels,
                              uint64_t v) {
  out_.append(name);
  AppendLabels(&out_, SortedLabels(labels));
  out_.push_back(' ');
  out_.append(std::to_string(v));
  out_.push_back('\n');
}

void ExpositionBuilder::Value(std::string_view name, const Labels& labels,
                              int64_t v) {
  out_.append(name);
  AppendLabels(&out_, SortedLabels(labels));
  out_.push_back(' ');
  out_.append(std::to_string(v));
  out_.push_back('\n');
}

void ExpositionBuilder::Histo(std::string_view name, const Labels& labels,
                              const HistogramSnapshot& snap) {
  const Labels sorted = SortedLabels(labels);
  const std::string bucket_name = std::string(name) + "_bucket";
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    if (snap.buckets[b] == 0) continue;
    cumulative += snap.buckets[b];
    Labels with_le = sorted;
    with_le.emplace_back(
        "le", std::to_string(HistogramSnapshot::BucketUpperBound(b)));
    out_.append(bucket_name);
    AppendLabels(&out_, with_le);  // sorted labels + trailing le
    out_.push_back(' ');
    out_.append(std::to_string(cumulative));
    out_.push_back('\n');
  }
  Labels with_inf = sorted;
  with_inf.emplace_back("le", "+Inf");
  out_.append(bucket_name);
  AppendLabels(&out_, with_inf);
  out_.push_back(' ');
  out_.append(std::to_string(cumulative));
  out_.push_back('\n');
  Value(std::string(name) + "_sum", sorted, snap.sum);
  Value(std::string(name) + "_count", sorted, cumulative);
}

// -------------------------------------------------------------- registry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::GetEntry(std::string_view name,
                                                  const Labels& labels,
                                                  Kind kind) {
  const std::string key = ExpositionBuilder::SeriesKey(name, labels);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(key);
  if (it == series_.end()) {
    Entry e;
    e.kind = kind;
    e.name = std::string(name);
    e.labels = labels;
    switch (kind) {
      case Kind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = series_.emplace(key, std::move(e)).first;
    return &it->second;
  }
  if (it->second.kind != kind) {
    MS_LOG(Error) << "metric series " << key
                  << " re-registered as a different kind; returning a "
                     "detached instance";
    auto orphan = std::make_unique<Entry>();
    orphan->kind = kind;
    orphan->name = std::string(name);
    orphan->labels = labels;
    switch (kind) {
      case Kind::kCounter:
        orphan->counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        orphan->gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        orphan->histogram = std::make_unique<Histogram>();
        break;
    }
    orphans_.push_back(std::move(orphan));
    return orphans_.back().get();
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const Labels& labels) {
  return GetEntry(name, labels, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, const Labels& labels) {
  return GetEntry(name, labels, Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const Labels& labels) {
  return GetEntry(name, labels, Kind::kHistogram)->histogram.get();
}

std::string MetricsRegistry::ExpositionText() const {
  // Series are never erased and map nodes never move, so the entries can be
  // rendered after the lock is released: holding it across the render
  // would starve every GetCounter/GetGauge/GetHistogram behind a scraper.
  std::vector<const Entry*> entries;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(series_.size());
    for (const auto& [key, e] : series_) entries.push_back(&e);
  }
  ExpositionBuilder b;
  for (const Entry* e : entries) {
    switch (e->kind) {
      case Kind::kCounter:
        b.Value(e->name, e->labels, e->counter->Value());
        break;
      case Kind::kGauge:
        b.Value(e->name, e->labels, e->gauge->Value());
        break;
      case Kind::kHistogram:
        b.Histo(e->name, e->labels, e->histogram->Snapshot());
        break;
    }
  }
  return std::move(b).Take();
}

void MetricsRegistry::ResetForTests() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : series_) {
    switch (e.kind) {
      case Kind::kCounter:
        e.counter->Reset();
        break;
      case Kind::kGauge:
        e.gauge->Reset();
        break;
      case Kind::kHistogram:
        e.histogram->Reset();
        break;
    }
  }
}

}  // namespace ms::obs
