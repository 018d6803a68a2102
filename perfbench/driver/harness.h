// Shared plumbing of the benchmark driver: clocks, order statistics, the
// result document every workload fills, and the benchmark's own span log.
//
// The span log is deliberately separate from the program's obs::Span
// flight recorder: the benchmark times the calls it makes into each
// layer's public functions from its own code, so renaming or removing a
// built-in span inside the program cannot change what is measured.
#ifndef PERFBENCH_DRIVER_HARNESS_H_
#define PERFBENCH_DRIVER_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json_writer.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Linear-interpolated quantile (numpy's default), q in [0, 1]. 0 for an
// empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
// The q-quantile of a run's latency samples, given in time order, made
// steady against the host: when there are enough samples for ten
// consecutive equal windows that each keep at least ten samples beyond the
// quantile, the mean of the middle six of the ten windows' quantiles (a
// stall that spoils a window or two is dropped, and a host that switches
// between a fast and a slow phase is averaged rather than picked);
// otherwise the plain quantile.
double RunQuantile(const std::vector<double>& in_time_order, double q);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

// Peak resident set of this process (getrusage), in MiB.
double SelfPeakRssMb();

// Run parameters shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;  // tiny inputs for the benchmark's own tests
  std::string dir;     // inputs + scratch output, on the checkout's disk
  std::string server;  // path of the crowdtruth_serve binary
  std::string spans;   // traced runs: where the span log is written
  // Negative-test hook: corrupts the expected side of the named oracle by
  // one label (or one count), which must make the run fail.
  std::string flip;
};

// The document a workload run produces. The end-to-end metrics go into
// `metrics` on an untraced run and the per-layer metrics on a traced run;
// `details` carries supporting figures (sample counts, oracle notes, the
// live-server cross-check) that are printed but not graded.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& key, crowdtruth::util::JsonValue value);
  // Records an oracle failure covering `ops` operations.
  void Fail(const std::string& why, int64_t ops = 1);
  // Puts the metrics in `order`, adding a 0 for every name a workload did
  // not report (a layer it never enters).
  void FillMissing(
      const std::vector<std::pair<std::string, std::string>>& order);
  void Attempt(int64_t ops) { attempted_ += ops; }
  void CountFailed(int64_t ops) { failed_ += ops; }

  std::string ToJsonLine() const;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  crowdtruth::util::JsonValue details_ =
      crowdtruth::util::JsonValue::Object();
  std::vector<std::string> failures_;
};

// In-memory span log kept by the benchmark itself. Spans nest through a
// per-log stack (single-threaded use), so a span's self time is its
// duration minus its children's.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name);
  void End(int index);

  struct Stat {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::vector<double> durations_s;
  };
  // Aggregate of the spans named `name` (empty when there are none); valid
  // until the next span begins.
  const Stat& Get(const std::string& name) const;

  // Chrome trace_event JSON ("X" events, microseconds), one event per
  // line, so the file streams instead of building one large document.
  // Only the first kMaxWrittenSpans spans are written (a serve replay
  // records a few per answer); the aggregates cover all of them.
  static constexpr size_t kMaxWrittenSpans = 250000;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Rec {
    int name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  // Fills aggregate_ from spans_ when spans were added since.
  void Aggregate() const;

  bool enabled_;
  std::vector<std::string> names_;
  std::map<std::string, int> name_index_;
  std::vector<Rec> spans_;
  std::vector<int> stack_;
  mutable std::map<std::string, Stat> aggregate_;
  mutable bool aggregate_valid_ = false;
};

// RAII span over one call into a layer; free when the log is disabled.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name)
      : log_(log), index_(log.enabled() ? log.Begin(name) : -1) {}
  ~Scoped() {
    if (index_ >= 0) log_.End(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// Share of labeled tasks whose label matches the truth; `truth` uses -1
// for unlabeled tasks. NaN-free: 0 when nothing is labeled.
double Accuracy(const std::vector<int>& labels, const std::vector<int>& truth);

// Reads a `task,truth` CSV into a map from task id to label.
std::map<std::string, int> ReadTruthCsv(const std::string& path);

// Entry points, one per workload family.
int RunBatchSrel(const RunOptions& options, Result* result);
int RunReplayShard4(const RunOptions& options, Result* result);
int RunServe(const RunOptions& options, Result* result);

// Input generation (separate process, before anything is timed).
int GenerateInputs(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HARNESS_H_
