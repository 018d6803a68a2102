// Process-wide metrics: the always-on counterpart of core/trace.h.
//
// A TraceSink observes one Infer call from the inside; a MetricRegistry
// observes the whole process from the outside — how many EM runs completed,
// how many answers the streaming engine ingested, how much the validators
// repaired, what the worker pool executed — and exposes the totals in
// Prometheus text format (for a scraper hitting server::StreamingServer) or
// as JSON (via util/json_writer, for run reports and file dumps).
//
// Four instrument kinds, thread-safe throughout (the first three with
// lock-free atomics on the hot path):
//
//   * Counter   — monotonically increasing double (events, seconds).
//   * Gauge     — arbitrary settable double (backlog depth, peak RSS).
//   * Histogram — fixed-bucket cumulative histogram; the log-scale bucket
//                 layout bounds memory to O(buckets) regardless of sample
//                 count, however long the stream runs.
//   * Digest    — a mutex-guarded obs::TDigest quantile sketch, exposed in
//                 Prometheus summary form (quantile-labeled samples plus
//                 _sum/_count). Buckets answer "how many samples fell
//                 here"; digests answer "what is p99" with memory bounded
//                 by the compression, not the bucket layout. The engine's
//                 latency series are digests, so one series carries both
//                 signals the adaptive controller steers on: the interval
//                 mean (from _sum/_count deltas) and the tail quantiles.
//
// Metrics come in families: a family has a name, a help string and a list
// of label names; each distinct label-value vector materializes one child
// instrument. Child lookup (WithLabels) takes the family mutex — callers on
// hot paths look the child up once and cache the pointer; Increment /
// Set / Observe on the child are pure atomics.
//
// Instrumented layers (em_loop, streaming/engine, data/validate) observe
// the process-wide registry installed via InstallProcessMetrics. When none
// is installed (the default) every instrumentation site reduces to one
// relaxed atomic pointer load and a branch, and results are unaffected
// either way: metrics record, they never steer.
//
// Registration is idempotent: re-adding a family with the same name
// returns the existing one (kind and label names must match), so
// independent components can declare the metrics they need without
// coordinating ownership.
#ifndef CROWDTRUTH_OBS_METRICS_H_
#define CROWDTRUTH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/tdigest.h"
#include "util/json_writer.h"

namespace crowdtruth::obs {

namespace internal {

// C++20 has std::atomic<double>::fetch_add, but a CAS loop keeps the
// memory-order story explicit and works on every toolchain we build with.
inline void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

// Raises `target` to at least `value` (for counters refreshed from an
// external monotone source, e.g. cumulative CPU from getrusage).
inline void AtomicMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace internal

class Counter {
 public:
  void Increment(double delta = 1.0) { internal::AtomicAdd(value_, delta); }
  // Sets the counter to at least `value`; used by collection hooks that
  // mirror an external cumulative total.
  void AdvanceTo(double value) { internal::AtomicMax(value_, value); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { internal::AtomicAdd(value_, delta); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Bucket layout shared by every child of a histogram family: strictly
// increasing finite upper bounds; the +Inf bucket is implicit.
struct HistogramBuckets {
  std::vector<double> bounds;

  // `count` buckets at first, first*factor, first*factor^2, ... — the
  // log-scale layout that covers microseconds to minutes in ~a dozen
  // buckets.
  static HistogramBuckets LogScale(double first, double factor, int count);
  // Default layout for second-denominated latencies: 1us .. ~68s, x4 steps.
  static HistogramBuckets LatencySeconds() {
    return LogScale(1e-6, 4.0, 14);
  }
  // Default layout for small nonnegative integer sizes (sweep depths,
  // backlog lengths): 1, 2, 4, ... 4096.
  static HistogramBuckets PowersOfTwo(int count = 13) {
    return LogScale(1.0, 2.0, count);
  }
};

class Histogram {
 public:
  explicit Histogram(const HistogramBuckets& buckets);

  // Lock-free: one relaxed increment on the bucket, the total count and
  // the sum. Non-finite values count toward the +Inf bucket with no sum
  // contribution, so one NaN cannot poison the series.
  void Observe(double value);

  struct Snapshot {
    // Cumulative count per finite bound, then the +Inf total.
    std::vector<int64_t> cumulative;
    int64_t count = 0;
    double sum = 0.0;
  };
  const std::vector<double>& bounds() const { return bounds_; }
  Snapshot Snap() const;

 private:
  std::vector<double> bounds_;
  // bounds_.size() + 1 slots; the last is the overflow (+Inf) bucket.
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Sketch layout shared by every child of a digest family.
struct DigestOptions {
  double compression = 100.0;
  // Quantiles exposed by the summary exposition (and mirrored as the
  // controller's quantile gauges); must be increasing in [0, 1].
  std::vector<double> quantiles = {0.5, 0.9, 0.99};
};

// A TDigest child instrument. Observe takes a never-shared-in-practice
// mutex (per child, uncontended except against a scrape); cheap enough for
// one sample per answer or request, but digests do not belong inside
// per-iteration kernels.
class Digest {
 public:
  explicit Digest(const DigestOptions& options)
      : options_(options), digest_(options.compression) {}

  void Observe(double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    digest_.Add(value);
  }

  TDigest Snap() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return digest_;
  }

  const DigestOptions& options() const { return options_; }

 private:
  DigestOptions options_;
  mutable std::mutex mutex_;
  TDigest digest_;
};

// One exposed series: the child instrument plus its label values (in the
// family's label-name order).
template <typename T>
struct LabeledChild {
  std::vector<std::string> labels;
  std::unique_ptr<T> child;
};

class MetricRegistry;

// Base the registry iterates for exposition; concrete families add the
// typed WithLabels accessor.
class FamilyBase {
 public:
  virtual ~FamilyBase() = default;
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<std::string>& label_names() const { return label_names_; }
  virtual const char* kind() const = 0;

 protected:
  friend class MetricRegistry;
  std::string name_;
  std::string help_;
  std::vector<std::string> label_names_;
  // The owning registry, for label-value interning in WithLabels. Never
  // null for families created through MetricRegistry::Add*Family.
  MetricRegistry* registry_ = nullptr;
};

template <typename T>
class Family : public FamilyBase {
 public:
  // Returns the child for `values` (sized like label_names), creating it on
  // first use. Takes the family mutex — cache the reference on hot paths.
  // Label values pass through the owning registry's interner first, so a
  // label name with a cardinality cap collapses overflow values into the
  // cap's overflow child (defined after MetricRegistry below).
  T& WithLabels(const std::vector<std::string>& values);

  const char* kind() const override;

  // Insertion-order snapshot of (labels, child) pairs for exposition. The
  // child pointers stay valid for the family's lifetime.
  std::vector<std::pair<std::vector<std::string>, const T*>> Children() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::vector<std::string>, const T*>> out;
    out.reserve(children_.size());
    for (const auto& entry : children_) {
      out.emplace_back(entry.labels, entry.child.get());
    }
    return out;
  }

 private:
  friend class MetricRegistry;
  std::unique_ptr<T> MakeChild() const;

  mutable std::mutex mutex_;
  std::vector<LabeledChild<T>> children_;
  HistogramBuckets buckets_;      // used only when T == Histogram
  DigestOptions digest_options_;  // used only when T == Digest
};

// The process-wide metric container. Thread-safe throughout; families and
// children live as long as the registry, so cached child pointers never
// dangle.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Unlabeled instruments: a single-series family whose only child has an
  // empty label vector.
  Counter& AddCounter(const std::string& name, const std::string& help);
  Gauge& AddGauge(const std::string& name, const std::string& help);
  Histogram& AddHistogram(const std::string& name, const std::string& help,
                          const HistogramBuckets& buckets);
  Digest& AddDigest(const std::string& name, const std::string& help,
                    const DigestOptions& options);

  Family<Counter>& AddCounterFamily(const std::string& name,
                                    const std::string& help,
                                    const std::vector<std::string>& labels);
  Family<Gauge>& AddGaugeFamily(const std::string& name,
                                const std::string& help,
                                const std::vector<std::string>& labels);
  Family<Histogram>& AddHistogramFamily(
      const std::string& name, const std::string& help,
      const std::vector<std::string>& labels,
      const HistogramBuckets& buckets);
  Family<Digest>& AddDigestFamily(const std::string& name,
                                  const std::string& help,
                                  const std::vector<std::string>& labels,
                                  const DigestOptions& options);

  // Lookup by family name for consumers that read metrics back out of the
  // registry (the server's adaptive controller). Returns nullptr when the
  // name is unregistered or registered as a different kind.
  Family<Counter>* FindCounterFamily(const std::string& name);
  Family<Gauge>* FindGaugeFamily(const std::string& name);
  Family<Digest>* FindDigestFamily(const std::string& name);

  // --- Label interning with a cardinality cap ---
  //
  // Per-tenant series turn an unbounded id space (tenant names arrive from
  // the network) into an unbounded number of children unless the registry
  // bounds them. SetLabelCardinalityCap declares that the label `name` may
  // take at most `cap` distinct values; every WithLabels call routes its
  // values through InternLabelValue, so once the cap is reached further
  // distinct values collapse into the shared `overflow_value` child
  // ("other") instead of materializing new series. Values seen before the
  // cap was hit keep their own series forever. cap <= 0 removes the cap.
  void SetLabelCardinalityCap(const std::string& name, int cap,
                              const std::string& overflow_value = "other");

  // The canonical value for one label: `value` itself while the label is
  // uncapped or under its cap, the cap's overflow value afterwards. The
  // overflow value itself always passes through.
  std::string InternLabelValue(const std::string& name,
                               const std::string& value);

  // Distinct values currently interned for a capped label (0 if uncapped).
  int LabelCardinality(const std::string& name);

  // Hooks run (in registration order) at the start of every exposition —
  // the pull-model refresh point for gauges mirroring external state
  // (resource usage, pool stats).
  void AddCollectionHook(std::function<void()> hook);

  // Prometheus text exposition format 0.0.4: one HELP and TYPE line per
  // family, one series line per child (histograms expand into _bucket /
  // _sum / _count; digests expose the summary form — one quantile-labeled
  // sample per configured quantile plus _sum / _count). Runs the
  // collection hooks first.
  void WritePrometheus(std::ostream& out);
  std::string PrometheusText();

  // {"format": "crowdtruth_metrics", "version": 1, "metrics": [...]}.
  // Runs the collection hooks first.
  util::JsonValue ToJson();

 private:
  template <typename T>
  Family<T>& AddFamily(const std::string& name, const std::string& help,
                       const std::vector<std::string>& labels,
                       const HistogramBuckets* buckets,
                       const DigestOptions* digest_options = nullptr);
  template <typename T>
  Family<T>* FindFamily(const std::string& name);

  struct LabelCap {
    int cap = 0;
    std::string overflow_value;
    std::set<std::string> values;  // distinct values admitted so far
  };

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<FamilyBase>> families_;  // registration order
  std::vector<std::function<void()>> hooks_;
  std::map<std::string, LabelCap> label_caps_;  // keyed by label name
};

template <typename T>
T& Family<T>::WithLabels(const std::vector<std::string>& values) {
  std::vector<std::string> canonical = values;
  if (registry_ != nullptr) {
    for (size_t i = 0; i < label_names_.size() && i < canonical.size(); ++i) {
      canonical[i] =
          registry_->InternLabelValue(label_names_[i], canonical[i]);
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : children_) {
    if (entry.labels == canonical) return *entry.child;
  }
  children_.push_back({std::move(canonical), MakeChild()});
  return *children_.back().child;
}

// The registry the instrumented layers report to; nullptr (the default)
// disables collection everywhere. The registry is not owned and must
// outlive its installation. Installation is process-global and atomic;
// swap only between runs, not while instrumented code is executing.
MetricRegistry* ProcessMetrics();
void InstallProcessMetrics(MetricRegistry* registry);

}  // namespace crowdtruth::obs

#endif  // CROWDTRUTH_OBS_METRICS_H_
