// crowdtruth_infer: command-line truth inference over CSV answer files.
//
//   crowdtruth_infer --answers=answers.csv --method=D&S \
//       [--truth=truth.csv] [--type=categorical|numeric]
//       [--num_choices=0] [--output=inferred.csv]
//       [--workers_output=workers.csv] [--seed=42]
//       [--threads=1] [--max_iterations=100] [--tolerance=1e-4]
//       [--trace] [--report=report.json] [--metrics_out=metrics.prom]
//       [--trace_out=trace.json]
//       [--validate] [--on-bad-record=reject|dedupe|drop]
//
// The answers file needs the header "task,worker,answer"; the optional
// truth file needs "task,truth" and enables quality reporting. The output
// file receives "task,truth" rows with the inferred truth (so it can be
// re-used as a golden file), and --workers_output receives
// "worker,quality" rows. --trace streams one line per iteration (delta +
// per-phase wall-clock) to stderr while the method converges; --report
// writes the full machine-readable run report (metrics, timings,
// iteration trajectory) as JSON. --threads sets the deterministic
// intra-method parallelism (0 = auto: CROWDTRUTH_THREADS env or the
// hardware concurrency); results are bit-identical at any thread count.
// --max_iterations / --tolerance override Algorithm 1's outer-loop
// controls. --on-bad-record picks the validation policy for malformed
// records (default reject: any duplicate / out-of-range / non-finite
// record fails the load; dedupe and drop repair instead). --validate
// prints the validation report (what was found and repaired) after
// loading. --metrics_out installs the process-wide metric registry for the
// run and dumps it on exit — Prometheus text exposition by default, the
// JSON form when the path ends in ".json". Available methods: run with
// --method=list.
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/registry.h"
#include "core/trace.h"
#include "data/io.h"
#include "data/validate.h"
#include "experiments/runner.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/trace_export.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/table_printer.h"

namespace {

using crowdtruth::util::Status;
using crowdtruth::util::TablePrinter;

int ListMethods() {
  TablePrinter table({"Method", "Task Types", "Task Model", "Worker Model",
                      "Technique"});
  for (const auto& info : crowdtruth::core::AllMethods()) {
    std::string types;
    if (info.decision_making) types += "decision-making ";
    if (info.single_choice) types += "single-choice ";
    if (info.numeric) types += "numeric";
    table.AddRow({info.name, types, info.task_model, info.worker_model,
                  info.technique});
  }
  table.Print(std::cout);
  return 0;
}

Status WriteLabels(const std::string& path,
                   const std::vector<std::string>& values) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"task", "truth"});
  for (size_t t = 0; t < values.size(); ++t) {
    rows.push_back({std::to_string(t), values[t]});
  }
  return crowdtruth::util::WriteCsvFile(path, rows);
}

Status WriteWorkers(const std::string& path,
                    const std::vector<double>& quality) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"worker", "quality"});
  for (size_t w = 0; w < quality.size(); ++w) {
    rows.push_back({std::to_string(w), std::to_string(quality[w])});
  }
  return crowdtruth::util::WriteCsvFile(path, rows);
}

int WriteReport(const std::string& path,
                const crowdtruth::experiments::RunReport& report) {
  const Status status = crowdtruth::util::WriteJsonFile(
      path, crowdtruth::experiments::RunReportJson(report));
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  std::cout << "wrote run report to " << path << '\n';
  return 0;
}

// Shared by both task types: resolve --on-bad-record, or exit 2.
crowdtruth::data::ValidationOptions ValidationFromFlags(
    const crowdtruth::util::Flags& flags) {
  crowdtruth::data::ValidationOptions options;
  const Status status = crowdtruth::data::ParseBadRecordPolicy(
      flags.Get("on-bad-record"), &options.policy);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    std::exit(2);
  }
  return options;
}

void MaybePrintValidation(const crowdtruth::util::Flags& flags,
                          const crowdtruth::data::ValidationReport& report) {
  if (!flags.GetBool("validate")) return;
  std::cout << "validation: " << report.Summary() << '\n';
  for (const std::string& example : report.examples) {
    std::cout << "  " << example << '\n';
  }
}

int RunCategorical(const crowdtruth::util::Flags& flags) {
  crowdtruth::data::CategoricalDataset dataset;
  crowdtruth::data::ValidationReport validation;
  Status status = crowdtruth::data::LoadCategorical(
      flags.Get("answers"), flags.Get("truth"), flags.GetInt("num_choices"),
      ValidationFromFlags(flags), &dataset, &validation);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  MaybePrintValidation(flags, validation);
  const auto method =
      crowdtruth::core::MakeCategoricalMethod(flags.Get("method"));
  if (method == nullptr) {
    std::cerr << "error: method " << flags.Get("method")
              << " does not handle categorical tasks (--method=list)\n";
    return 1;
  }
  crowdtruth::core::InferenceOptions options;
  options.seed = flags.GetInt("seed");
  options.num_threads = flags.GetInt("threads");
  options.max_iterations = flags.GetInt("max_iterations");
  options.tolerance = flags.GetDouble("tolerance");
  crowdtruth::experiments::RunReport report;
  const bool want_report = !flags.Get("report").empty();
  const auto eval = crowdtruth::experiments::EvaluateCategorical(
      *method, dataset, options, /*positive_label=*/0,
      /*evaluate=*/nullptr, want_report ? &report : nullptr);
  // The label-producing run carries the streaming trace; with a fixed seed
  // it follows the same trajectory as the evaluation run above.
  crowdtruth::core::StreamTraceSink stream(std::cerr);
  if (flags.GetBool("trace")) options.trace = &stream;
  const auto result = method->Infer(dataset, options);

  std::cout << "dataset: " << dataset.num_tasks() << " tasks, "
            << dataset.num_answers() << " answers, "
            << dataset.num_workers() << " workers, "
            << dataset.num_choices() << " choices\n"
            << "method: " << method->name() << " ("
            << eval.iterations << " iterations, "
            << TablePrinter::Fixed(eval.seconds, 3) << "s)\n";
  if (dataset.num_labeled_tasks() > 0) {
    std::cout << "accuracy: " << TablePrinter::Percent(eval.accuracy, 2)
              << " on " << dataset.num_labeled_tasks() << " labeled tasks";
    if (dataset.num_choices() == 2) {
      std::cout << ", F1(label 0): " << TablePrinter::Percent(eval.f1, 2);
    }
    std::cout << '\n';
  }
  if (!flags.Get("output").empty()) {
    std::vector<std::string> values;
    values.reserve(result.labels.size());
    for (crowdtruth::data::LabelId label : result.labels) {
      values.push_back(std::to_string(label));
    }
    status = WriteLabels(flags.Get("output"), values);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote inferred truth to " << flags.Get("output") << '\n';
  }
  if (!flags.Get("workers_output").empty()) {
    status = WriteWorkers(flags.Get("workers_output"),
                          result.worker_quality);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote worker qualities to " << flags.Get("workers_output")
              << '\n';
  }
  if (want_report) return WriteReport(flags.Get("report"), report);
  return 0;
}

int RunNumeric(const crowdtruth::util::Flags& flags) {
  crowdtruth::data::NumericDataset dataset;
  crowdtruth::data::ValidationReport validation;
  Status status = crowdtruth::data::LoadNumeric(
      flags.Get("answers"), flags.Get("truth"), ValidationFromFlags(flags),
      &dataset, &validation);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  MaybePrintValidation(flags, validation);
  const auto method =
      crowdtruth::core::MakeNumericMethod(flags.Get("method"));
  if (method == nullptr) {
    std::cerr << "error: method " << flags.Get("method")
              << " does not handle numeric tasks (--method=list)\n";
    return 1;
  }
  crowdtruth::core::InferenceOptions options;
  options.seed = flags.GetInt("seed");
  options.num_threads = flags.GetInt("threads");
  options.max_iterations = flags.GetInt("max_iterations");
  options.tolerance = flags.GetDouble("tolerance");
  crowdtruth::experiments::RunReport report;
  const bool want_report = !flags.Get("report").empty();
  const auto eval = crowdtruth::experiments::EvaluateNumeric(
      *method, dataset, options, /*evaluate=*/nullptr,
      want_report ? &report : nullptr);
  crowdtruth::core::StreamTraceSink stream(std::cerr);
  if (flags.GetBool("trace")) options.trace = &stream;
  const auto result = method->Infer(dataset, options);

  std::cout << "dataset: " << dataset.num_tasks() << " tasks, "
            << dataset.num_answers() << " answers, "
            << dataset.num_workers() << " workers\n"
            << "method: " << method->name() << " (" << eval.iterations
            << " iterations, " << TablePrinter::Fixed(eval.seconds, 3)
            << "s)\n";
  if (dataset.num_labeled_tasks() > 0) {
    std::cout << "MAE: " << TablePrinter::Fixed(eval.mae, 3)
              << ", RMSE: " << TablePrinter::Fixed(eval.rmse, 3) << " on "
              << dataset.num_labeled_tasks() << " labeled tasks\n";
  }
  if (!flags.Get("output").empty()) {
    std::vector<std::string> values;
    values.reserve(result.values.size());
    for (double value : result.values) {
      values.push_back(std::to_string(value));
    }
    status = WriteLabels(flags.Get("output"), values);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote inferred truth to " << flags.Get("output") << '\n';
  }
  if (!flags.Get("workers_output").empty()) {
    status = WriteWorkers(flags.Get("workers_output"),
                          result.worker_quality);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote worker qualities to " << flags.Get("workers_output")
              << '\n';
  }
  if (want_report) return WriteReport(flags.Get("report"), report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const crowdtruth::util::Flags flags(argc, argv,
                                      {{"answers", ""},
                                       {"truth", ""},
                                       {"method", "D&S"},
                                       {"type", "categorical"},
                                       {"num_choices", "0"},
                                       {"output", ""},
                                       {"workers_output", ""},
                                       {"seed", "42"},
                                       {"threads", "1"},
                                       {"max_iterations", "100"},
                                       {"tolerance", "1e-4"},
                                       {"trace", "false"},
                                       {"report", ""},
                                       {"metrics_out", ""},
                                       {"trace_out", ""},
                                       {"validate", "false"},
                                       {"on-bad-record", "reject"}});
  if (flags.Get("method") == "list") return ListMethods();
  if (flags.Get("answers").empty()) {
    std::cerr << "error: --answers is required (or --method=list)\n";
    return 2;
  }
  // The registry outlives the run; instrumentation sites read it through
  // ProcessMetrics() and must never observe a dangling pointer.
  crowdtruth::obs::MetricRegistry registry;
  const std::string metrics_out = flags.Get("metrics_out");
  if (!metrics_out.empty()) {
    crowdtruth::obs::RegisterProcessCollectors(&registry);
    crowdtruth::obs::InstallProcessMetrics(&registry);
  }
  // Same lifetime discipline as the registry: spans read the recorder
  // through ProcessFlightRecorder(), armed only when --trace_out asks.
  crowdtruth::obs::FlightRecorder recorder;
  const std::string trace_out = flags.Get("trace_out");
  if (!trace_out.empty()) crowdtruth::obs::InstallFlightRecorder(&recorder);
  int code;
  if (flags.Get("type") == "numeric") {
    code = RunNumeric(flags);
  } else if (flags.Get("type") == "categorical") {
    code = RunCategorical(flags);
  } else {
    std::cerr << "error: --type must be categorical or numeric\n";
    code = 2;
  }
  if (!metrics_out.empty()) {
    crowdtruth::obs::InstallProcessMetrics(nullptr);
    const crowdtruth::util::Status status =
        crowdtruth::obs::WriteMetricsFile(metrics_out, registry);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      if (code == 0) code = 1;
    } else {
      std::cout << "wrote metrics to " << metrics_out << '\n';
    }
  }
  if (!trace_out.empty()) {
    crowdtruth::obs::InstallFlightRecorder(nullptr);
    const crowdtruth::util::Status status =
        crowdtruth::obs::WriteTraceFile(trace_out, recorder);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      if (code == 0) code = 1;
    } else {
      std::cout << "wrote trace to " << trace_out << '\n';
    }
  }
  return code;
}
