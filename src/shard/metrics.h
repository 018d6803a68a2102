// Per-shard observability (obs/metrics.h families, label {shard}).
//
// Registered lazily against the process-wide registry by whoever runs a
// shard — the in-process coordinator (shard/coordinator.h) and the worker-
// process CLI (tools/crowdtruth_shard.cc) share these families, so a
// scrape of either deployment shape reads the same series:
//
//   crowdtruth_shard_barrier_wait_seconds   (histogram) time a shard spent
//       waiting at a barrier for its peers (poll time for worker
//       processes; in-process, where shards run concurrently, how long
//       its finished local work waited for the slowest peer's);
//   crowdtruth_shard_summary_bytes_total    (counter) serialized worker-
//       summary bytes this shard contributed to all-reduces;
//   crowdtruth_shard_checkpoint_seconds     (histogram) wall-clock cost of
//       writing one checkpoint;
//   crowdtruth_shard_checkpoints_total      (counter) checkpoints written;
//   crowdtruth_shard_barriers_total         (counter) barriers completed;
//   crowdtruth_shard_restarts_total         (counter) restores from a
//       checkpoint.
#ifndef CROWDTRUTH_SHARD_METRICS_H_
#define CROWDTRUTH_SHARD_METRICS_H_

#include <string>

#include "obs/metrics.h"

namespace crowdtruth::shard {

struct ShardMetricSet {
  obs::Histogram* barrier_wait = nullptr;
  obs::Counter* summary_bytes = nullptr;
  obs::Histogram* checkpoint_seconds = nullptr;
  obs::Counter* checkpoints = nullptr;
  obs::Counter* barriers = nullptr;
  obs::Counter* restarts = nullptr;
};

// Resolves the {shard} children of the shard metric families in
// `registry` (adding the families if this is the registry's first shard).
// The caller caches the result; the children are plain atomics.
ShardMetricSet ResolveShardMetricSet(obs::MetricRegistry* registry,
                                     const std::string& shard);

}  // namespace crowdtruth::shard

#endif  // CROWDTRUTH_SHARD_METRICS_H_
