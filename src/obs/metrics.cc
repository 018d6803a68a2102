#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace crowdtruth::obs {

namespace {

// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// {label="value",...} with an optional extra label (histograms' le=).
std::string LabelSet(const std::vector<std::string>& names,
                     const std::vector<std::string>& values,
                     const std::string& extra_name = "",
                     const std::string& extra_value = "") {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    out += out.empty() ? "{" : ",";
    out += names[i] + "=\"" + EscapeLabelValue(values[i]) + "\"";
  }
  if (!extra_name.empty()) {
    out += out.empty() ? "{" : ",";
    out += extra_name + "=\"" + extra_value + "\"";
  }
  if (!out.empty()) out += "}";
  return out;
}

util::JsonValue LabelsJson(const std::vector<std::string>& names,
                           const std::vector<std::string>& values) {
  util::JsonValue labels = util::JsonValue::Object();
  for (size_t i = 0; i < names.size(); ++i) labels.Set(names[i], values[i]);
  return labels;
}

// Compact rendering for `le` bucket labels (1e-06, 0.25, 4096); shortest
// %g form, unlike JsonNumber's round-trip-exact %.17g.
std::string FormatBound(double bound) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", bound);
  return buffer;
}

}  // namespace

HistogramBuckets HistogramBuckets::LogScale(double first, double factor,
                                            int count) {
  CROWDTRUTH_CHECK(first > 0.0 && factor > 1.0 && count > 0);
  HistogramBuckets buckets;
  buckets.bounds.reserve(count);
  double bound = first;
  for (int i = 0; i < count; ++i) {
    buckets.bounds.push_back(bound);
    bound *= factor;
  }
  return buckets;
}

Histogram::Histogram(const HistogramBuckets& buckets)
    : bounds_(buckets.bounds),
      buckets_(new std::atomic<int64_t>[buckets.bounds.size() + 1]) {
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    CROWDTRUTH_CHECK(bounds_[i] < bounds_[i + 1]);
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  size_t bucket = bounds_.size();  // +Inf overflow slot
  if (std::isfinite(value)) {
    // `le` is an inclusive upper bound, so the first bound >= value wins.
    bucket = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
             bounds_.begin();
    internal::AtomicAdd(sum_, value);
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snapshot;
  snapshot.cumulative.reserve(bounds_.size() + 1);
  int64_t running = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    snapshot.cumulative.push_back(running);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

template <>
const char* Family<Counter>::kind() const {
  return "counter";
}
template <>
const char* Family<Gauge>::kind() const {
  return "gauge";
}
template <>
const char* Family<Histogram>::kind() const {
  return "histogram";
}
template <>
const char* Family<Digest>::kind() const {
  return "summary";
}

template <>
std::unique_ptr<Counter> Family<Counter>::MakeChild() const {
  return std::make_unique<Counter>();
}
template <>
std::unique_ptr<Gauge> Family<Gauge>::MakeChild() const {
  return std::make_unique<Gauge>();
}
template <>
std::unique_ptr<Histogram> Family<Histogram>::MakeChild() const {
  return std::make_unique<Histogram>(buckets_);
}
template <>
std::unique_ptr<Digest> Family<Digest>::MakeChild() const {
  return std::make_unique<Digest>(digest_options_);
}

template <typename T>
Family<T>& MetricRegistry::AddFamily(const std::string& name,
                                     const std::string& help,
                                     const std::vector<std::string>& labels,
                                     const HistogramBuckets* buckets,
                                     const DigestOptions* digest_options) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& family : families_) {
    if (family->name() != name) continue;
    auto* typed = dynamic_cast<Family<T>*>(family.get());
    CROWDTRUTH_CHECK(typed != nullptr);  // same name, different kind
    CROWDTRUTH_CHECK(typed->label_names() == labels);
    return *typed;
  }
  auto family = std::make_unique<Family<T>>();
  family->name_ = name;
  family->help_ = help;
  family->label_names_ = labels;
  family->registry_ = this;
  if (buckets != nullptr) family->buckets_ = *buckets;
  if (digest_options != nullptr) family->digest_options_ = *digest_options;
  Family<T>& ref = *family;
  families_.push_back(std::move(family));
  return ref;
}

template <typename T>
Family<T>* MetricRegistry::FindFamily(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& family : families_) {
    if (family->name() == name) {
      return dynamic_cast<Family<T>*>(family.get());
    }
  }
  return nullptr;
}

Family<Counter>* MetricRegistry::FindCounterFamily(const std::string& name) {
  return FindFamily<Counter>(name);
}

Family<Gauge>* MetricRegistry::FindGaugeFamily(const std::string& name) {
  return FindFamily<Gauge>(name);
}

Family<Digest>* MetricRegistry::FindDigestFamily(const std::string& name) {
  return FindFamily<Digest>(name);
}

void MetricRegistry::SetLabelCardinalityCap(const std::string& name, int cap,
                                            const std::string& overflow_value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (cap <= 0) {
    label_caps_.erase(name);
    return;
  }
  LabelCap& entry = label_caps_[name];
  entry.cap = cap;
  entry.overflow_value = overflow_value;
}

std::string MetricRegistry::InternLabelValue(const std::string& name,
                                             const std::string& value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = label_caps_.find(name);
  if (it == label_caps_.end()) return value;
  LabelCap& cap = it->second;
  if (value == cap.overflow_value) return value;
  if (cap.values.count(value) > 0) return value;
  if (static_cast<int>(cap.values.size()) < cap.cap) {
    cap.values.insert(value);
    return value;
  }
  return cap.overflow_value;
}

int MetricRegistry::LabelCardinality(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = label_caps_.find(name);
  return it == label_caps_.end()
             ? 0
             : static_cast<int>(it->second.values.size());
}

Counter& MetricRegistry::AddCounter(const std::string& name,
                                    const std::string& help) {
  return AddFamily<Counter>(name, help, {}, nullptr).WithLabels({});
}

Gauge& MetricRegistry::AddGauge(const std::string& name,
                                const std::string& help) {
  return AddFamily<Gauge>(name, help, {}, nullptr).WithLabels({});
}

Histogram& MetricRegistry::AddHistogram(const std::string& name,
                                        const std::string& help,
                                        const HistogramBuckets& buckets) {
  return AddFamily<Histogram>(name, help, {}, &buckets).WithLabels({});
}

Digest& MetricRegistry::AddDigest(const std::string& name,
                                  const std::string& help,
                                  const DigestOptions& options) {
  return AddFamily<Digest>(name, help, {}, nullptr, &options).WithLabels({});
}

Family<Counter>& MetricRegistry::AddCounterFamily(
    const std::string& name, const std::string& help,
    const std::vector<std::string>& labels) {
  return AddFamily<Counter>(name, help, labels, nullptr);
}

Family<Gauge>& MetricRegistry::AddGaugeFamily(
    const std::string& name, const std::string& help,
    const std::vector<std::string>& labels) {
  return AddFamily<Gauge>(name, help, labels, nullptr);
}

Family<Histogram>& MetricRegistry::AddHistogramFamily(
    const std::string& name, const std::string& help,
    const std::vector<std::string>& labels, const HistogramBuckets& buckets) {
  return AddFamily<Histogram>(name, help, labels, &buckets);
}

Family<Digest>& MetricRegistry::AddDigestFamily(
    const std::string& name, const std::string& help,
    const std::vector<std::string>& labels, const DigestOptions& options) {
  return AddFamily<Digest>(name, help, labels, nullptr, &options);
}

void MetricRegistry::AddCollectionHook(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lock(mutex_);
  hooks_.push_back(std::move(hook));
}

void MetricRegistry::WritePrometheus(std::ostream& out) {
  std::vector<std::function<void()>> hooks;
  std::vector<FamilyBase*> families;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    hooks = hooks_;
    families.reserve(families_.size());
    for (const auto& family : families_) families.push_back(family.get());
  }
  for (const auto& hook : hooks) hook();

  for (FamilyBase* base : families) {
    out << "# HELP " << base->name() << " " << base->help() << "\n";
    out << "# TYPE " << base->name() << " " << base->kind() << "\n";
    const auto& names = base->label_names();
    if (auto* counters = dynamic_cast<Family<Counter>*>(base)) {
      for (const auto& [values, child] : counters->Children()) {
        out << base->name() << LabelSet(names, values) << " "
            << util::JsonNumber(child->Value()) << "\n";
      }
    } else if (auto* gauges = dynamic_cast<Family<Gauge>*>(base)) {
      for (const auto& [values, child] : gauges->Children()) {
        out << base->name() << LabelSet(names, values) << " "
            << util::JsonNumber(child->Value()) << "\n";
      }
    } else if (auto* histograms = dynamic_cast<Family<Histogram>*>(base)) {
      for (const auto& [values, child] : histograms->Children()) {
        const Histogram::Snapshot snap = child->Snap();
        const auto& bounds = child->bounds();
        for (size_t i = 0; i < bounds.size(); ++i) {
          out << base->name() << "_bucket"
              << LabelSet(names, values, "le", FormatBound(bounds[i])) << " "
              << snap.cumulative[i] << "\n";
        }
        out << base->name() << "_bucket"
            << LabelSet(names, values, "le", "+Inf") << " "
            << snap.cumulative.back() << "\n";
        out << base->name() << "_sum" << LabelSet(names, values) << " "
            << util::JsonNumber(snap.sum) << "\n";
        out << base->name() << "_count" << LabelSet(names, values) << " "
            << snap.count << "\n";
      }
    } else if (auto* digests = dynamic_cast<Family<Digest>*>(base)) {
      for (const auto& [values, child] : digests->Children()) {
        const TDigest snap = child->Snap();
        for (const double q : child->options().quantiles) {
          // Quantile of an empty digest is 0, which the exposition checker
          // accepts; NaN would not survive the sample-value regex.
          out << base->name()
              << LabelSet(names, values, "quantile", FormatBound(q)) << " "
              << util::JsonNumber(snap.Quantile(q)) << "\n";
        }
        out << base->name() << "_sum" << LabelSet(names, values) << " "
            << util::JsonNumber(snap.sum()) << "\n";
        out << base->name() << "_count" << LabelSet(names, values) << " "
            << snap.count() << "\n";
      }
    }
  }
}

std::string MetricRegistry::PrometheusText() {
  std::ostringstream out;
  WritePrometheus(out);
  return out.str();
}

util::JsonValue MetricRegistry::ToJson() {
  std::vector<std::function<void()>> hooks;
  std::vector<FamilyBase*> families;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    hooks = hooks_;
    families.reserve(families_.size());
    for (const auto& family : families_) families.push_back(family.get());
  }
  for (const auto& hook : hooks) hook();

  util::JsonValue metrics = util::JsonValue::Array();
  for (FamilyBase* base : families) {
    util::JsonValue entry = util::JsonValue::Object();
    entry.Set("name", base->name());
    entry.Set("kind", base->kind());
    entry.Set("help", base->help());
    util::JsonValue series = util::JsonValue::Array();
    const auto& names = base->label_names();
    if (auto* counters = dynamic_cast<Family<Counter>*>(base)) {
      for (const auto& [values, child] : counters->Children()) {
        util::JsonValue point = util::JsonValue::Object();
        point.Set("labels", LabelsJson(names, values));
        point.Set("value", child->Value());
        series.Append(std::move(point));
      }
    } else if (auto* gauges = dynamic_cast<Family<Gauge>*>(base)) {
      for (const auto& [values, child] : gauges->Children()) {
        util::JsonValue point = util::JsonValue::Object();
        point.Set("labels", LabelsJson(names, values));
        point.Set("value", child->Value());
        series.Append(std::move(point));
      }
    } else if (auto* histograms = dynamic_cast<Family<Histogram>*>(base)) {
      for (const auto& [values, child] : histograms->Children()) {
        const Histogram::Snapshot snap = child->Snap();
        util::JsonValue point = util::JsonValue::Object();
        point.Set("labels", LabelsJson(names, values));
        point.Set("count", snap.count);
        point.Set("sum", snap.sum);
        util::JsonValue buckets = util::JsonValue::Array();
        const auto& bounds = child->bounds();
        for (size_t i = 0; i < bounds.size(); ++i) {
          util::JsonValue bucket = util::JsonValue::Object();
          bucket.Set("le", bounds[i]);
          bucket.Set("count", snap.cumulative[i]);
          buckets.Append(std::move(bucket));
        }
        point.Set("buckets", std::move(buckets));
        series.Append(std::move(point));
      }
    } else if (auto* digests = dynamic_cast<Family<Digest>*>(base)) {
      for (const auto& [values, child] : digests->Children()) {
        const TDigest snap = child->Snap();
        util::JsonValue point = util::JsonValue::Object();
        point.Set("labels", LabelsJson(names, values));
        point.Set("count", snap.count());
        point.Set("sum", snap.sum());
        util::JsonValue quantiles = util::JsonValue::Array();
        for (const double q : child->options().quantiles) {
          util::JsonValue entry_q = util::JsonValue::Object();
          entry_q.Set("quantile", q);
          entry_q.Set("value", snap.Quantile(q));
          quantiles.Append(std::move(entry_q));
        }
        point.Set("quantiles", std::move(quantiles));
        series.Append(std::move(point));
      }
    }
    entry.Set("series", std::move(series));
    metrics.Append(std::move(entry));
  }

  util::JsonValue root = util::JsonValue::Object();
  root.Set("format", "crowdtruth_metrics");
  root.Set("version", 1);
  root.Set("metrics", std::move(metrics));
  return root;
}

namespace {
std::atomic<MetricRegistry*> g_process_metrics{nullptr};
}  // namespace

MetricRegistry* ProcessMetrics() {
  return g_process_metrics.load(std::memory_order_acquire);
}

void InstallProcessMetrics(MetricRegistry* registry) {
  g_process_metrics.store(registry, std::memory_order_release);
}

}  // namespace crowdtruth::obs
