// Minimal data-parallel helpers for embarrassingly parallel loops.
// Deterministic: work functions receive the loop index, so results land in
// pre-assigned slots regardless of scheduling.
//
// Two flavours:
//   * ParallelFor       — spawns threads per call; used by the experiment
//                         layer for coarse, long-running trial loops.
//   * ParallelForSlotted — runs on a persistent process-wide worker pool and
//                         additionally hands each invocation the slot index
//                         of the executing worker (0 = caller thread), for
//                         per-slot scratch reuse. Built for the EM driver
//                         (core/em_loop.h), whose sharded truth/quality
//                         steps run many short regions per inference call;
//                         re-spawning threads per region would dominate.
//
// Beside them, the background solver: one process-wide thread that runs
// whole jobs in FIFO order while their submitter carries on.
#ifndef CROWDTRUTH_UTIL_PARALLEL_H_
#define CROWDTRUTH_UTIL_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace crowdtruth::util {

// Runs fn(0) ... fn(count - 1) across up to `num_threads` threads
// (num_threads <= 1 runs inline). fn must not throw; it is invoked exactly
// once per index.
void ParallelFor(int count, int num_threads,
                 const std::function<void(int)>& fn);

// Runs fn(index, slot) for index in [0, count) across up to `num_threads`
// workers of a shared persistent pool; slot in [0, num_threads) identifies
// the executing worker so callers can maintain per-slot scratch buffers
// (slot 0 is the calling thread). fn must not throw, and must write only
// state owned by its index (plus its slot's scratch). Invocations are
// serialized across concurrent callers. num_threads <= 1 runs inline with
// slot 0, and so does a nested call made from inside fn: it runs on the
// worker that makes it, with slots numbered from 0 again, so its per-slot
// scratch must belong to that call (as the EM kernel's does), not to the
// enclosing region.
void ParallelForSlotted(int count, int num_threads,
                        const std::function<void(int, int)>& fn);

// Cumulative process-lifetime accounting for ParallelForSlotted (both the
// pooled and the inline single-thread path). Maintained with relaxed
// atomics inside the pool — a handful of adds per region, nothing per
// task; the per-slot counters are cache-line-sharded
// (util/sharded_counter.h) so workers never false-share — and read by the
// observability layer's collection hook
// (obs::RegisterProcessCollectors), which derives the slot-imbalance gauge
// from per_slot_tasks.
struct SlottedPoolStats {
  // Regions executed (one per ParallelForSlotted call with count > 0).
  int64_t regions = 0;
  // Task invocations across all regions.
  int64_t tasks = 0;
  // Tasks executed by each slot (0 = caller thread); sized to the highest
  // slot that ever ran work.
  std::vector<int64_t> per_slot_tasks;
};
SlottedPoolStats GetSlottedPoolStats();

// The default worker count: the CROWDTRUTH_THREADS environment variable
// when set to a positive integer, otherwise the full hardware concurrency.
// A positive `cap` bounds the hardware fallback (the env override is the
// operator's word and is not capped).
int DefaultThreads(int cap = 0);

// --- The background solver ---
//
// One thread per process, started by the first SubmitBackground, runs the
// submitted jobs one at a time in submission order. The stream engine
// hands it the batch solves of its periodic resyncs, so they run beside
// the serving loop instead of on it; one queue for every engine keeps the
// solves serialized, as they were on the loop. A job may itself run
// ParallelForSlotted regions (a multi-threaded batch solve).
class BackgroundJob;

// Queues `fn` (which must not throw) and returns its handle.
std::shared_ptr<BackgroundJob> SubmitBackground(std::function<void()> fn);

// Blocks until `job` has run. Returns true when it had not finished yet,
// i.e. the caller had to wait. Returns false at once for a withdrawn job.
bool WaitBackground(BackgroundJob& job);

// Takes `job` off the queue when it has not started, so it never runs;
// otherwise waits until it has finished. Either way the job holds nothing
// of its submitter's afterwards.
void WithdrawBackground(BackgroundJob& job);

}  // namespace crowdtruth::util

#endif  // CROWDTRUTH_UTIL_PARALLEL_H_
