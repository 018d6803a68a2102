// Streaming engine benchmark: incremental-vs-batch quality and throughput
// (ISSUE 2 tentpole). Streams an online-assignment collection through each
// incremental method at several resync intervals and reports
//
//   * per-answer Observe latency (mean / p50 / p99) against the cost of the
//     naive alternative — one full batch solve per answer — as a speedup
//     factor (the acceptance bar is >= 10x);
//   * final accuracy after the end-of-stream resync, plus the fraction of
//     estimates that match an independent batch run over the same answers
//     (1.0 by construction: resync adopts the batch solution verbatim);
//   * pre-resync accuracy (the approximation the localized updates reach on
//     their own when the interval is 0, i.e. resync disabled until the end).
//
// A numeric section streams a shuffled N_Emotion collection through Mean
// and Median, whose incremental forms track the batch solution exactly at
// every answer (no resync needed for correctness).
#include <algorithm>
#include <iostream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/inference.h"
#include "simulation/online_assignment.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

namespace bench = crowdtruth::bench;
namespace core = crowdtruth::core;
namespace data = crowdtruth::data;
namespace sim = crowdtruth::sim;
namespace streaming = crowdtruth::streaming;
using crowdtruth::util::Flags;
using crowdtruth::util::Stopwatch;
using crowdtruth::util::TablePrinter;

// Accuracy of per-engine-task estimates against the generated truth.
// Engine task i interned the string form of the original dataset index.
template <typename Engine, typename TruthFn, typename MatchFn>
double EngineAccuracy(const Engine& engine, TruthFn truth, MatchFn match) {
  int labeled = 0;
  int correct = 0;
  for (int t = 0; t < engine.method().num_tasks(); ++t) {
    const int original = std::stoi(engine.tasks().Name(t));
    if (!truth(original)) continue;
    ++labeled;
    if (match(t, original)) ++correct;
  }
  return labeled == 0 ? 0.0 : static_cast<double>(correct) / labeled;
}

struct CategoricalRow {
  std::string method;
  int resync_interval = 0;
  double pre_resync_accuracy = 0.0;
  double final_accuracy = 0.0;
  double batch_match = 0.0;
  int resyncs = 0;
  double resync_seconds = 0.0;
  double mean_observe = 0.0;
  double p50_observe = 0.0;
  double p99_observe = 0.0;
  double speedup = 0.0;
};

CategoricalRow RunCategoricalCase(
    const std::string& method_name, int num_choices, int resync_interval,
    const std::vector<sim::OnlineAnswerEvent>& events,
    const data::CategoricalDataset& dataset,
    const core::CategoricalResult& batch, double batch_seconds,
    uint64_t seed) {
  streaming::StreamingOptions options;
  options.batch.seed = seed;
  streaming::EngineConfig config;
  config.resync_interval = resync_interval;
  streaming::CategoricalStreamEngine engine(
      streaming::MakeIncrementalCategorical(method_name, num_choices,
                                            options),
      config);
  for (const sim::OnlineAnswerEvent& event : events) {
    const crowdtruth::util::Status status =
        engine.Observe(std::to_string(event.task),
                       std::to_string(event.worker), event.label);
    CROWDTRUTH_CHECK(status.ok()) << status.ToString();
  }
  CategoricalRow row;
  row.method = method_name;
  row.resync_interval = resync_interval;
  row.pre_resync_accuracy = EngineAccuracy(
      engine, [&](int t) { return dataset.HasTruth(t); },
      [&](int t, int original) {
        return engine.method().Estimate(t) == dataset.Truth(original);
      });
  engine.Resync();
  row.final_accuracy = EngineAccuracy(
      engine, [&](int t) { return dataset.HasTruth(t); },
      [&](int t, int original) {
        return engine.method().Estimate(t) == dataset.Truth(original);
      });
  row.batch_match = EngineAccuracy(
      engine, [](int) { return true; },
      [&](int t, int original) {
        return engine.method().Estimate(t) == batch.labels[original];
      });
  row.resyncs = engine.stats().resyncs;
  row.resync_seconds = engine.stats().resync_seconds;
  row.mean_observe = engine.stats().observe_latency.mean();
  row.p50_observe = engine.stats().observe_latency.Quantile(0.5);
  row.p99_observe = engine.stats().observe_latency.Quantile(0.99);
  row.speedup =
      row.mean_observe > 0.0 ? batch_seconds / row.mean_observe : 0.0;
  return row;
}

std::vector<int> ParseIntervals(const std::string& csv) {
  std::vector<int> intervals;
  std::string token;
  for (const char c : csv + ",") {
    if (c == ',') {
      if (!token.empty()) intervals.push_back(std::stoi(token));
      token.clear();
    } else {
      token += c;
    }
  }
  return intervals;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {{"profile", "D_PosSent"},
                     {"scale", "0.2"},
                     {"budget", "0"},
                     {"strategy", "uncertainty"},
                     {"resync_intervals", "0,250,1000"},
                     {"seed", "42"},
                     {"json_out", ""}});
  bench::PrintBenchHeader(
      "Streaming engine: incremental vs batch quality and throughput",
      "the streaming extension of Algorithm 1; latency vs a full re-run "
      "per answer");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  bench::JsonReport report("streaming", flags.Get("json_out"));

  // --- Categorical: online-assignment stream through MV / ZC / D&S. ---
  sim::CategoricalSimSpec spec = sim::ScaleSpec(
      sim::CategoricalProfileSpec(flags.Get("profile")),
      flags.GetDouble("scale"));
  sim::OnlineAssignmentConfig assign;
  assign.strategy = sim::AssignmentStrategy::kUncertainty;
  if (flags.Get("strategy") == "random") {
    assign.strategy = sim::AssignmentStrategy::kRandom;
  } else if (flags.Get("strategy") == "round_robin") {
    assign.strategy = sim::AssignmentStrategy::kRoundRobin;
  }
  assign.total_budget = flags.GetInt("budget") > 0
                            ? flags.GetInt("budget")
                            : spec.num_tasks * spec.assignment.redundancy;
  std::vector<sim::OnlineAnswerEvent> events;
  const data::CategoricalDataset dataset =
      sim::SimulateOnlineCollection(spec, assign, seed, &events);
  std::cout << "\nstream: " << flags.Get("profile") << " x"
            << flags.GetDouble("scale") << ", " << events.size()
            << " answers, " << dataset.num_tasks() << " tasks, "
            << dataset.num_workers() << " workers\n\n";

  const std::vector<int> intervals =
      ParseIntervals(flags.Get("resync_intervals"));
  TablePrinter table({"method", "resync", "acc(pre)", "acc(final)",
                      "batch match", "mean obs", "p99 obs", "speedup"});
  for (const std::string& method_name :
       streaming::IncrementalCategoricalNames()) {
    // Batch reference: one full solve over the complete collection; its
    // wall-clock is the per-answer cost of the naive streaming strategy.
    const auto batch_method = core::MakeCategoricalMethod(method_name);
    core::InferenceOptions batch_options;
    batch_options.seed = seed;
    Stopwatch stopwatch;
    const core::CategoricalResult batch =
        batch_method->Infer(dataset, batch_options);
    const double batch_seconds = stopwatch.ElapsedSeconds();

    for (const int interval : intervals) {
      const CategoricalRow row =
          RunCategoricalCase(method_name, spec.num_choices, interval, events,
                             dataset, batch, batch_seconds, seed);
      table.AddRow({row.method,
                    interval == 0 ? "final" : std::to_string(interval),
                    TablePrinter::Percent(row.pre_resync_accuracy, 2),
                    TablePrinter::Percent(row.final_accuracy, 2),
                    TablePrinter::Percent(row.batch_match, 2),
                    TablePrinter::Fixed(row.mean_observe * 1e6, 1) + "us",
                    TablePrinter::Fixed(row.p99_observe * 1e6, 1) + "us",
                    TablePrinter::Fixed(row.speedup, 1) + "x"});
      report.AddRecord(
          {{"domain", "categorical"},
           {"method", row.method},
           {"resync_interval", row.resync_interval},
           {"answers", static_cast<int64_t>(events.size())},
           {"pre_resync_accuracy", row.pre_resync_accuracy},
           {"final_accuracy", row.final_accuracy},
           {"batch_match", row.batch_match},
           {"resyncs", row.resyncs},
           {"resync_seconds", row.resync_seconds},
           {"batch_seconds", batch_seconds},
           {"mean_observe_seconds", row.mean_observe},
           {"p50_observe_seconds", row.p50_observe},
           {"p99_observe_seconds", row.p99_observe},
           {"speedup_vs_full_rerun", row.speedup}});
    }
  }
  table.Print(std::cout);

  // --- Numeric: shuffled N_Emotion answers through Mean / Median. ---
  const data::NumericDataset numeric = sim::GenerateNumericProfile(
      "N_Emotion", flags.GetDouble("scale"), seed);
  std::vector<std::pair<int, data::NumericTaskVote>> numeric_answers;
  for (int t = 0; t < numeric.num_tasks(); ++t) {
    for (const data::NumericTaskVote& vote : numeric.AnswersForTask(t)) {
      numeric_answers.emplace_back(t, vote);
    }
  }
  crowdtruth::util::Rng rng(seed);
  rng.Shuffle(numeric_answers);
  std::cout << "\nnumeric stream: N_Emotion x" << flags.GetDouble("scale")
            << ", " << numeric_answers.size() << " answers (shuffled)\n\n";

  TablePrinter numeric_table({"method", "mae(stream)", "mae(batch)",
                              "max |diff|", "mean obs", "speedup"});
  for (const std::string& method_name :
       streaming::IncrementalNumericNames()) {
    const auto batch_method = core::MakeNumericMethod(method_name);
    core::InferenceOptions batch_options;
    batch_options.seed = seed;
    Stopwatch stopwatch;
    const core::NumericResult batch =
        batch_method->Infer(numeric, batch_options);
    const double batch_seconds = stopwatch.ElapsedSeconds();

    streaming::StreamingOptions options;
    options.batch.seed = seed;
    streaming::NumericStreamEngine engine(
        streaming::MakeIncrementalNumeric(method_name, options), {});
    for (const auto& [task, vote] : numeric_answers) {
      const crowdtruth::util::Status status =
          engine.Observe(std::to_string(task), std::to_string(vote.worker),
                         vote.value);
      CROWDTRUTH_CHECK(status.ok()) << status.ToString();
    }
    // No resync: Mean/Median incremental forms track batch exactly.
    double max_diff = 0.0;
    double stream_mae = 0.0;
    double batch_mae = 0.0;
    int labeled = 0;
    for (int t = 0; t < engine.method().num_tasks(); ++t) {
      const int original = std::stoi(engine.tasks().Name(t));
      max_diff = std::max(max_diff,
                          std::fabs(engine.method().Estimate(t) -
                                    batch.values[original]));
      if (!numeric.HasTruth(original)) continue;
      ++labeled;
      stream_mae +=
          std::fabs(engine.method().Estimate(t) - numeric.Truth(original));
      batch_mae +=
          std::fabs(batch.values[original] - numeric.Truth(original));
    }
    if (labeled > 0) {
      stream_mae /= labeled;
      batch_mae /= labeled;
    }
    const double mean_observe = engine.stats().observe_latency.mean();
    const double speedup =
        mean_observe > 0.0 ? batch_seconds / mean_observe : 0.0;
    numeric_table.AddRow({method_name, TablePrinter::Fixed(stream_mae, 3),
                          TablePrinter::Fixed(batch_mae, 3),
                          TablePrinter::Fixed(max_diff, 12),
                          TablePrinter::Fixed(mean_observe * 1e6, 1) + "us",
                          TablePrinter::Fixed(speedup, 1) + "x"});
    report.AddRecord(
        {{"domain", "numeric"},
         {"method", method_name},
         {"resync_interval", 0},
         {"answers", static_cast<int64_t>(numeric_answers.size())},
         {"stream_mae", stream_mae},
         {"batch_mae", batch_mae},
         {"max_abs_diff_vs_batch", max_diff},
         {"batch_seconds", batch_seconds},
         {"mean_observe_seconds", mean_observe},
         {"speedup_vs_full_rerun", speedup}});
  }
  numeric_table.Print(std::cout);

  report.Write(std::cout);
  return 0;
}
