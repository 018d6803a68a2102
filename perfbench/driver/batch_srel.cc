// batch_srel: the paper's own workload (Table 6). The S_Rel profile is
// loaded from CSV through data::LoadCategorical, then solved repeatedly
// with single-thread batch ZC and D&S. Almost all of the work is in the
// core and data layers; streaming, shard and server are never entered.
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/io.h"
#include "data/validate.h"
#include "harness.h"
#include "plan.h"
#include "util/csv.h"

namespace perfbench {

namespace {

namespace data = crowdtruth::data;
namespace core = crowdtruth::core;
using crowdtruth::util::JsonValue;

const char* const kMethods[] = {"ZC", "D&S"};
// Truth-file writes per solve: enough samples for a steady read p90.
constexpr int kReadsPerSolve = 5;

struct Solve {
  std::vector<data::LabelId> labels;
  int iterations = 0;
  double seconds = 0.0;
};

// The batch job's delivery of truth: the `task,truth` file
// crowdtruth_infer --output writes.
void WriteTruth(const std::vector<std::string>& names,
                const std::vector<data::LabelId>& labels,
                const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(labels.size() + 1);
  rows.push_back({"task", "truth"});
  for (size_t t = 0; t < labels.size(); ++t) {
    rows.push_back({names[t], std::to_string(labels[t])});
  }
  (void)crowdtruth::util::WriteCsvFile(path, rows);
}

// Task ids in first-appearance order: the dense ids LoadCategorical
// assigns.
std::vector<std::string> TaskNames(const std::string& answers) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  std::ifstream in(answers);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const std::string task = line.substr(0, line.find(','));
    if (seen.insert(task).second) names.push_back(task);
  }
  return names;
}

struct Phase {
  double wall_s = 0.0;
  std::vector<double> round_s;
  std::vector<double> read_s;
  std::vector<Solve> solves;  // rounds x methods, in order
};

// The measured phase: `rounds` rounds of one ZC and one D&S solve, each
// followed by writing its truth file kReadsPerSolve times.
Phase RunRounds(const data::CategoricalDataset& dataset,
                const std::vector<std::string>& names, int rounds,
                const std::string& truth_out, SpanLog& spans) {
  Phase phase;
  const core::InferenceOptions inference;  // 1 thread, the shipped default
  std::unique_ptr<core::CategoricalMethod> methods[2] = {
      core::MakeCategoricalMethod(kMethods[0]),
      core::MakeCategoricalMethod(kMethods[1])};
  const int64_t start = NowNs();
  for (int r = 0; r < rounds; ++r) {
    double round = 0.0;
    for (auto& method : methods) {
      Solve solve;
      const int64_t t0 = NowNs();
      core::CategoricalResult out;
      {
        Scoped span(spans, "core.Infer");
        out = method->Infer(dataset, inference);
      }
      solve.seconds = SecondsSince(t0);
      round += solve.seconds;
      solve.labels = std::move(out.labels);
      solve.iterations = out.iterations;
      for (int k = 0; k < kReadsPerSolve; ++k) {
        const int64_t w0 = NowNs();
        {
          Scoped span(spans, "util.WriteCsvFile");
          WriteTruth(names, solve.labels, truth_out);
        }
        phase.read_s.push_back(SecondsSince(w0));
      }
      phase.solves.push_back(std::move(solve));
    }
    phase.round_s.push_back(round);
  }
  phase.wall_s = SecondsSince(start);
  return phase;
}

}  // namespace

int RunBatchSrel(const RunOptions& options, Result* result) {
  const Plan plan = MakePlan(options);
  SpanLog spans(options.trace);
  const std::string answers = SrelAnswersPath(options.dir);
  const std::string truth = SrelTruthPath(options.dir);
  const std::string truth_out = options.dir + "/batch_truth_out.csv";

  // Set-up, repeated: each restart loads the CSV (CSV parse, validation,
  // CSR build) and then produces a first truth with ZC, which is the
  // batch job's recovery time.
  data::CategoricalDataset dataset;
  std::vector<double> load_s;
  std::vector<double> recovery_s;
  const core::InferenceOptions inference;
  for (int k = 0; k < plan.setup_repeats; ++k) {
    data::CategoricalDataset loaded;
    const int64_t t0 = NowNs();
    const crowdtruth::util::Status status =
        data::LoadCategorical(answers, truth, 4, &loaded);
    load_s.push_back(SecondsSince(t0));
    if (!status.ok()) {
      std::cerr << "perfbench: " << status.ToString() << "\n";
      return 1;
    }
    (void)core::MakeCategoricalMethod("ZC")->Infer(loaded, inference);
    recovery_s.push_back(SecondsSince(t0));
    dataset = std::move(loaded);
  }

  std::vector<int> truth_labels(dataset.num_tasks(), -1);
  for (int t = 0; t < dataset.num_tasks(); ++t) {
    if (dataset.HasTruth(t)) truth_labels[t] = dataset.Truth(t);
  }
  const int64_t answers_n = dataset.num_answers();

  SpanLog untraced(false);
  const std::vector<std::string> names = TaskNames(answers);
  const Phase phase =
      RunRounds(dataset, names, plan.rounds, truth_out, untraced);

  // Oracle: every repeated solve of a method returns the same labels and
  // iteration count as its first solve.
  std::vector<Solve> solves = phase.solves;
  if (options.flip == "repeat" && solves.size() > 2) {
    std::vector<data::LabelId>& last = solves.back().labels;
    last[0] = (last[0] + 1) % 4;
  }
  result->Attempt(static_cast<int64_t>(solves.size()));
  for (size_t i = 2; i < solves.size(); ++i) {
    const Solve& first = solves[i % 2];
    if (solves[i].labels != first.labels ||
        solves[i].iterations != first.iterations) {
      result->Fail(std::string(kMethods[i % 2]) + " solve " +
                   std::to_string(i / 2) +
                   " differs from the first solve of the same method");
    }
  }
  std::vector<double> accuracy;
  for (size_t m = 0; m < 2 && m < solves.size(); ++m) {
    std::vector<int> labels(solves[m].labels.begin(), solves[m].labels.end());
    accuracy.push_back(Accuracy(labels, truth_labels));
  }
  double infer_total = 0.0;
  for (const Solve& solve : phase.solves) infer_total += solve.seconds;

  JsonValue iterations = JsonValue::Object();
  iterations.Set("ZC", phase.solves.empty() ? 0 : phase.solves[0].iterations);
  iterations.Set("D&S",
                 phase.solves.size() < 2 ? 0 : phase.solves[1].iterations);
  result->Detail("answers", answers_n);
  result->Detail("tasks", dataset.num_tasks());
  result->Detail("solves", static_cast<int64_t>(phase.solves.size()));
  result->Detail("iterations", std::move(iterations));
  result->Detail("measured_s", phase.wall_s);

  if (!options.trace) {
    result->Metric("setup_s", Median(load_s), "s");
    result->Metric("throughput_aps",
                   answers_n * static_cast<double>(phase.solves.size()) /
                       infer_total,
                   "answers/s");
    result->Metric("ack_p50_ms", RunQuantile(phase.round_s, 0.5) * 1e3, "ms");
    result->Metric("ack_p99_ms", RunQuantile(phase.round_s, 0.99) * 1e3,
                   "ms");
    result->Metric("read_p50_ms", RunQuantile(phase.read_s, 0.5) * 1e3, "ms");
    result->Metric("read_p90_ms", RunQuantile(phase.read_s, 0.9) * 1e3,
                   "ms");
    result->Metric("accuracy", Mean(accuracy), "ratio");
    result->Metric("served_accuracy", Mean(accuracy), "ratio");
    result->Metric("peak_rss_mb", SelfPeakRssMb(), "MiB");
    result->Metric("recovery_s", Median(recovery_s), "s");
    return 0;
  }

  // Traced run: the same rounds again with the benchmark's spans on, plus
  // the data layer's functions (the set-up's load, and the validator and
  // builder it runs inside) driven directly on the same input.
  const Phase traced =
      RunRounds(dataset, names, plan.rounds, truth_out, spans);
  // Untraced again after the traced phase: the overhead compares against
  // the mean of the phases on either side, so host drift cancels.
  const double untraced_s =
      (phase.wall_s +
       RunRounds(dataset, names, plan.rounds, truth_out, untraced).wall_s) /
      2;
  for (int k = 0; k < plan.setup_repeats; ++k) {
    data::CategoricalDataset loaded;
    Scoped span(spans, "data.LoadCategorical");
    (void)data::LoadCategorical(answers, truth, 4, &loaded);
  }
  for (int k = 0; k < plan.setup_repeats; ++k) {
    data::CategoricalDatasetBuilder builder(
        dataset.num_tasks(), dataset.num_workers(), dataset.num_choices());
    std::vector<data::RawCategoricalAnswer> records;
    records.reserve(answers_n);
    for (int t = 0; t < dataset.num_tasks(); ++t) {
      for (const auto& vote : dataset.AnswersForTask(t)) {
        builder.AddAnswer(t, vote.worker, vote.label);
        records.push_back({t, vote.worker, vote.label,
                           static_cast<int64_t>(records.size() + 2)});
      }
    }
    data::CategoricalDataset built;
    {
      Scoped span(spans, "data.TryBuild");
      (void)std::move(builder).TryBuild(&built);
    }
    data::ValidationReport report;
    Scoped span(spans, "data.ValidateCategoricalRecords");
    (void)data::ValidateCategoricalRecords("answers", 4, {}, &records,
                                           &report);
  }
  int64_t answer_iterations = 0;
  int64_t total_iterations = 0;
  for (const Solve& solve : traced.solves) {
    answer_iterations += answers_n * solve.iterations;
    total_iterations += solve.iterations;
  }
  const SpanLog::Stat& infer = spans.Get("core.Infer");
  const SpanLog::Stat& write = spans.Get("util.WriteCsvFile");
  result->Metric("core.infer_s", infer.total_s, "s");
  result->Metric("core.ns_per_answer_iter",
                 infer.total_s * 1e9 / static_cast<double>(answer_iterations),
                 "ns");
  result->Metric("core.iterations", static_cast<double>(total_iterations),
                 "count");
  result->Metric("data.load_s",
                 Median(spans.Get("data.LoadCategorical").durations_s), "s");
  result->Metric("data.build_s", Median(spans.Get("data.TryBuild").durations_s),
                 "s");
  const SpanLog::Stat& validate = spans.Get("data.ValidateCategoricalRecords");
  result->Metric("data.validate_us_per_row",
                 validate.total_s * 1e6 /
                     static_cast<double>(validate.count * answers_n),
                 "us");
  result->Metric("obs.trace_overhead_pct",
                 (traced.wall_s - untraced_s) / untraced_s * 100.0, "%");
  result->Metric("obs.coverage_pct",
                 (infer.self_s + write.self_s) / traced.wall_s * 100.0, "%");
  if (!options.spans.empty()) spans.WriteChromeTrace(options.spans);
  return 0;
}

}  // namespace perfbench
