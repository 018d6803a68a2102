#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

#include "util/csv.h"

namespace perfbench {

using crowdtruth::util::JsonValue;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double RunQuantile(const std::vector<double>& in_time_order, double q) {
  constexpr size_t kWindows = 10;
  constexpr size_t kTrim = 2;  // windows dropped at each end
  const size_t window = in_time_order.size() / kWindows;
  if (static_cast<double>(window) * std::min(q, 1.0 - q) < 10.0) {
    return Quantile(in_time_order, q);
  }
  std::vector<double> per_window;
  for (size_t w = 0; w < kWindows; ++w) {
    per_window.push_back(Quantile(
        std::vector<double>(in_time_order.begin() + w * window,
                            in_time_order.begin() + (w + 1) * window),
        q));
  }
  std::sort(per_window.begin(), per_window.end());
  return Mean(std::vector<double>(per_window.begin() + kTrim,
                                  per_window.end() - kTrim));
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / values.size();
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::FillMissing(
    const std::vector<std::pair<std::string, std::string>>& order) {
  auto reported = std::move(metrics_);
  metrics_.clear();
  for (const auto& [name, unit] : order) {
    const auto it = std::find_if(
        reported.begin(), reported.end(),
        [&name = name](const auto& entry) { return entry.first == name; });
    if (it == reported.end()) {
      Metric(name, 0.0, unit);
    } else {
      metrics_.push_back(*it);
    }
  }
}

void Result::Detail(const std::string& key, JsonValue value) {
  details_.Set(key, std::move(value));
}

void Result::Fail(const std::string& why, int64_t ops) {
  correct_ = false;
  failed_ += ops;
  failures_.push_back(why);
}

std::string Result::ToJsonLine() const {
  JsonValue root = JsonValue::Object();
  root.Set("correct", correct_);
  root.Set("attempted", attempted_);
  root.Set("failed", failed_);
  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, entry] : metrics_) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", entry.first);
    metric.Set("unit", entry.second);
    metrics.Set(name, std::move(metric));
  }
  root.Set("metrics", std::move(metrics));
  JsonValue details = details_;
  JsonValue failures = JsonValue::Array();
  for (const std::string& why : failures_) failures.Append(why);
  details.Set("oracle_failures", std::move(failures));
  root.Set("details", std::move(details));
  return root.Dump();
}

int SpanLog::Begin(const char* name) {
  aggregate_valid_ = false;
  auto it = name_index_.find(name);
  if (it == name_index_.end()) {
    it = name_index_.emplace(name, static_cast<int>(names_.size())).first;
    names_.push_back(name);
  }
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({it->second, parent, NowNs(), 0});
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanLog::End(int index) {
  spans_[index].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanLog::Aggregate() const {
  if (aggregate_valid_) return;
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Rec& rec : spans_) {
    if (rec.parent >= 0) {
      child_s[rec.parent] += (rec.end_ns - rec.start_ns) * 1e-9;
    }
  }
  aggregate_.clear();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& rec = spans_[i];
    Stat& stat = aggregate_[names_[rec.name]];
    const double duration = (rec.end_ns - rec.start_ns) * 1e-9;
    ++stat.count;
    stat.total_s += duration;
    stat.self_s += duration - child_s[i];
    stat.durations_s.push_back(duration);
  }
  aggregate_valid_ = true;
}

const SpanLog::Stat& SpanLog::Get(const std::string& name) const {
  static const Stat kEmpty;
  Aggregate();
  const auto it = aggregate_.find(name);
  return it == aggregate_.end() ? kEmpty : it->second;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const size_t written = std::min(spans_.size(), kMaxWrittenSpans);
  out << "{\"otherData\":{\"spans\":" << spans_.size()
      << ",\"written\":" << written << "},\"traceEvents\":[\n";
  for (size_t i = 0; i < written; ++i) {
    const Rec& rec = spans_[i];
    out << "{\"name\":\"" << names_[rec.name]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << (rec.start_ns - origin) / 1000.0
        << ",\"dur\":" << (rec.end_ns - rec.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << rec.parent
        << "}}" << (i + 1 < written ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.good();
}

double Accuracy(const std::vector<int>& labels, const std::vector<int>& truth) {
  int64_t labeled = 0;
  int64_t right = 0;
  for (size_t t = 0; t < labels.size() && t < truth.size(); ++t) {
    if (truth[t] < 0) continue;
    ++labeled;
    right += labels[t] == truth[t] ? 1 : 0;
  }
  return labeled == 0 ? 0.0 : static_cast<double>(right) / labeled;
}

std::map<std::string, int> ReadTruthCsv(const std::string& path) {
  std::map<std::string, int> truth;
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const std::vector<std::string> fields =
        crowdtruth::util::ParseCsvLine(line);
    if (fields.size() == 2) truth[fields[0]] = std::stoi(fields[1]);
  }
  return truth;
}

}  // namespace perfbench
