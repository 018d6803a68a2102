// The shared driver for Algorithm 1's outer loop (paper §3).
//
// Every iterative method alternates the same two phases — re-estimate
// worker quality from the current truth ("quality step") and re-infer the
// truth from the current qualities ("truth step") — wrapped in identical
// bookkeeping: one phase clock feeding the TraceSink and the phase-seconds
// metrics, convergence measurement, the convergence_trace / iterations /
// converged triple, and an early exit when the parameter change falls
// below tolerance. RunEmLoop owns that skeleton once; methods supply only
// their kernels.
//
// A kernel is an EmStep: a phase tag (for tracing) plus a callback that
// performs the phase's work. The callback receives an EmContext whose
// ParallelShards() runs a deterministic sharded loop on the process-wide
// worker pool: truth steps shard over tasks, quality steps over workers,
// and gradient kernels alternate both. Determinism is structural, not
// statistical — each shard serially reduces over its own adjacency row
// (the dataset's CSR layout: task-major task_offsets/task_workers/
// task_labels for truth steps, the worker-major transpose for quality
// steps; see data/dataset.h) and writes only state it owns, so the
// floating-point evaluation order per task/worker is independent of the
// thread count and the results are bit-identical for any
// InferenceOptions::num_threads. Kernels that need shared sequential state
// (the Gibbs samplers' RNG, tie-breaking draws) simply run that part
// serially inside the callback; RNG consumption order is then also
// thread-count invariant.
#ifndef CROWDTRUTH_CORE_EM_LOOP_H_
#define CROWDTRUTH_CORE_EM_LOOP_H_

#include <functional>
#include <vector>

#include "core/inference.h"
#include "core/trace.h"

namespace crowdtruth::core {

// Handed to every kernel invocation; owns nothing.
class EmContext {
 public:
  explicit EmContext(int num_threads)
      : num_threads_(num_threads < 1 ? 1 : num_threads) {}

  // Worker-pool width. Kernels size per-slot scratch with this.
  int num_threads() const { return num_threads_; }

  // 0-based index of the current outer iteration (the Gibbs samplers use it
  // to gate burn-in).
  int iteration() const { return iteration_; }

  // Runs fn(shard, slot) for shard in [0, count); slot < num_threads()
  // identifies the executing worker for scratch reuse. fn must write only
  // state owned by its shard (plus slot scratch) — under that contract the
  // result is bit-identical at any thread count.
  void ParallelShards(int count,
                      const std::function<void(int, int)>& fn) const;

 private:
  friend struct EmLoopStats RunEmLoop(
      const struct EmDriver&, const std::vector<struct EmStep>&,
      const std::function<double(bool)>&);
  int num_threads_;
  int iteration_ = 0;
};

// How the driver decides the loop has converged after an iteration.
enum class EmConvergence {
  // delta < tolerance — the EM / variational / IRLS methods.
  kDeltaBelowTolerance,
  // delta == 0 exactly — methods whose truth state is discrete labels
  // (PM, CATD categorical, Multi) converge when no label changed.
  kDeltaIsZero,
  // Run max_iterations unconditionally — fixed-round message passing (KOS)
  // and the Gibbs samplers (BCC, CBCC).
  kFixedIterations,
};

struct EmStep {
  TracePhase phase = TracePhase::kTruthStep;
  std::function<void(const EmContext&)> run;
};

// Driver configuration. FromOptions copies the Algorithm-1 controls from
// InferenceOptions and resolves num_threads (<= 0 -> util::DefaultThreads);
// methods then override the fields their semantics require.
struct EmDriver {
  int max_iterations = 100;
  double tolerance = 1e-4;
  int num_threads = 1;
  TraceSink* trace = nullptr;
  // Registry-facing method name: the `method` label on the process-wide
  // EM metrics (obs/metrics.h). Purely observational — never branches the
  // math. String literals only; the driver does not copy it.
  const char* method = "unknown";
  EmConvergence convergence = EmConvergence::kDeltaBelowTolerance;
  // Completed iterations required before convergence may fire. The
  // PM-family methods demand two, so the quality step runs at least once
  // on a truth estimate it produced.
  int min_iterations = 1;
  // Append each iteration's delta to convergence_trace. The fixed-round
  // methods historically keep the trace empty.
  bool record_trace = true;

  static EmDriver FromOptions(const InferenceOptions& options,
                              const char* method = "unknown");
};

// The bookkeeping RunEmLoop accumulates; mirrors the trailing fields of
// CategoricalResult / NumericResult.
struct EmLoopStats {
  std::vector<double> convergence_trace;
  int iterations = 0;
  bool converged = false;
};

// Runs the outer loop: each iteration executes `steps` in order (ending the
// trace phase each step names), then calls measure() serially to commit the
// iteration's state and return its convergence delta. measure's argument is
// false only when the delta is provably unused (kFixedIterations with no
// trace sink), letting fixed-round methods skip the bookkeeping.
EmLoopStats RunEmLoop(const EmDriver& driver, const std::vector<EmStep>& steps,
                      const std::function<double(bool delta_needed)>& measure);

inline void AdoptStats(EmLoopStats&& stats, CategoricalResult* result) {
  result->convergence_trace = std::move(stats.convergence_trace);
  result->iterations = stats.iterations;
  result->converged = stats.converged;
}

inline void AdoptStats(EmLoopStats&& stats, NumericResult* result) {
  result->convergence_trace = std::move(stats.convergence_trace);
  result->iterations = stats.iterations;
  result->converged = stats.converged;
}

}  // namespace crowdtruth::core

#endif  // CROWDTRUTH_CORE_EM_LOOP_H_
