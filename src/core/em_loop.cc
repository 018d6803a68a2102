#include "core/em_loop.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/parallel.h"

namespace crowdtruth::core {
namespace {

// Commits one finished loop to the process-wide registry. Family lookups
// run once per Infer call (not per iteration), so the mutex-guarded name
// resolution is off the hot path.
void RecordEmRunMetrics(obs::MetricRegistry* metrics, const EmDriver& driver,
                        const EmLoopStats& stats, double truth_seconds,
                        double quality_seconds) {
  const std::vector<std::string> label = {driver.method};
  metrics
      ->AddCounterFamily("crowdtruth_em_runs_total",
                         "Completed Algorithm-1 outer loops per method.",
                         {"method"})
      .WithLabels(label)
      .Increment();
  if (stats.converged) {
    metrics
        ->AddCounterFamily(
            "crowdtruth_em_converged_runs_total",
            "Loops that met their convergence rule before max_iterations.",
            {"method"})
        .WithLabels(label)
        .Increment();
  }
  metrics
      ->AddCounterFamily("crowdtruth_em_iterations_total",
                         "Outer iterations executed per method.", {"method"})
      .WithLabels(label)
      .Increment(stats.iterations);
  metrics
      ->AddCounterFamily(
          "crowdtruth_em_truth_step_seconds_total",
          "Wall-clock spent in truth-step kernels per method.", {"method"})
      .WithLabels(label)
      .Increment(truth_seconds);
  metrics
      ->AddCounterFamily(
          "crowdtruth_em_quality_step_seconds_total",
          "Wall-clock spent in quality-step kernels per method.", {"method"})
      .WithLabels(label)
      .Increment(quality_seconds);
  if (!stats.convergence_trace.empty()) {
    obs::Histogram& deltas =
        metrics
            ->AddHistogramFamily(
                "crowdtruth_em_convergence_delta",
                "Per-iteration parameter change (convergence_trace values).",
                {"method"},
                obs::HistogramBuckets::LogScale(1e-10, 10.0, 12))
            .WithLabels(label);
    for (const double delta : stats.convergence_trace) {
      deltas.Observe(delta);
    }
  }
}

}  // namespace

void EmContext::ParallelShards(int count,
                               const std::function<void(int, int)>& fn) const {
  util::ParallelForSlotted(count, num_threads_, fn);
}

EmDriver EmDriver::FromOptions(const InferenceOptions& options,
                               const char* method) {
  EmDriver driver;
  driver.method = method;
  driver.max_iterations = options.max_iterations;
  driver.tolerance = options.tolerance;
  // An explicit request is still capped at the hardware width: extra pool
  // workers on a saturated machine cannot speed up a CPU-bound shard loop,
  // they only add scheduler thrash per region. Results are unaffected by
  // construction — kernels are bit-identical at any thread count.
  driver.num_threads = options.num_threads <= 0
                           ? util::DefaultThreads()
                           : std::min(options.num_threads,
                                      util::DefaultThreads());
  driver.trace = options.trace;
  return driver;
}

EmLoopStats RunEmLoop(const EmDriver& driver, const std::vector<EmStep>& steps,
                      const std::function<double(bool)>& measure) {
  EmLoopStats stats;
  obs::Span run_span("em_run");
  if (run_span.armed()) run_span.Annotate("method", driver.method);
  EmContext context(driver.num_threads);
  // The em_run span is the phase clock. It feeds both consumers: the trace
  // sink's per-iteration phase times and the registry's per-run phase
  // totals. It is read once per phase boundary, and only when one of them
  // is installed.
  obs::MetricRegistry* const metrics = obs::ProcessMetrics();
  const bool timed = driver.trace != nullptr || metrics != nullptr;
  double truth_seconds = 0.0;
  double quality_seconds = 0.0;
  for (int iteration = 0; iteration < driver.max_iterations; ++iteration) {
    context.iteration_ = iteration;
    IterationEvent event;
    double mark = timed ? run_span.ElapsedSeconds() : 0.0;
    for (const EmStep& step : steps) {
      obs::Span step_span(step.phase == TracePhase::kTruthStep
                              ? "em_truth_step"
                              : "em_quality_step");
      if (step_span.armed()) {
        step_span.Annotate("iteration", static_cast<int64_t>(iteration));
      }
      step.run(context);
      if (timed) {
        const double now = run_span.ElapsedSeconds();
        (step.phase == TracePhase::kTruthStep ? event.truth_seconds
                                              : event.quality_seconds) +=
            now - mark;
        mark = now;
      }
    }
    truth_seconds += event.truth_seconds;
    quality_seconds += event.quality_seconds;
    // Only the trace sink may ask for a delta: tracing changes what some
    // methods compute for it, and metrics must never perturb a run.
    const bool delta_needed =
        driver.convergence != EmConvergence::kFixedIterations ||
        driver.trace != nullptr;
    const double delta = measure(delta_needed);
    stats.iterations = iteration + 1;
    if (driver.record_trace) stats.convergence_trace.push_back(delta);
    if (driver.trace != nullptr) {
      event.iteration = stats.iterations;
      event.delta = delta;
      driver.trace->OnIteration(event);
    }
    bool converged = false;
    switch (driver.convergence) {
      case EmConvergence::kDeltaBelowTolerance:
        converged = delta < driver.tolerance;
        break;
      case EmConvergence::kDeltaIsZero:
        converged = delta == 0.0;
        break;
      case EmConvergence::kFixedIterations:
        break;
    }
    if (converged && stats.iterations >= driver.min_iterations) {
      stats.converged = true;
      break;
    }
  }
  if (metrics != nullptr) {
    RecordEmRunMetrics(metrics, driver, stats, truth_seconds,
                       quality_seconds);
  }
  if (run_span.armed()) {
    run_span.Annotate("iterations", static_cast<int64_t>(stats.iterations));
    run_span.Annotate("converged", std::string(stats.converged ? "1" : "0"));
  }
  return stats;
}

}  // namespace crowdtruth::core
