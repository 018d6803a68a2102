// TDigest: a mergeable, bounded-memory quantile sketch (Dunning's merging
// t-digest) for the latency series whose fixed log-scale histogram buckets
// only resolve quantiles to bucket granularity.
//
// Memory is O(compression) centroids regardless of sample count; accuracy
// concentrates at the tails (relative rank error shrinks toward q=0 and
// q=1), which is exactly where the adaptive controller steers — p99, not
// the mean.
//
// Determinism contract (pinned by tests/obs_tdigest_test.cc, mirroring the
// WorkerSummary merge contract): compression sorts the combined centroid
// multiset by (mean, weight) before clustering, so
//
//   * Merge is exactly order-independent — a.Merge(b) and b.Merge(a)
//     produce bit-identical centroid lists, and
//   * an N-way merge in shard order equals the same merge in any other
//     order once the inputs are the same multiset of centroids,
//
// and ToJson/FromJson round-trip through %.17g, so a digest serialized at
// a shard barrier and merged on the coordinator is the digest that was
// sent.
//
// Not thread-safe; the registry wraps one TDigest per metric child behind
// a mutex (see obs::Digest in obs/metrics.h).
#ifndef CROWDTRUTH_OBS_TDIGEST_H_
#define CROWDTRUTH_OBS_TDIGEST_H_

#include <cstdint>
#include <vector>

#include "util/json_writer.h"
#include "util/status.h"

namespace crowdtruth::obs {

struct TDigestCentroid {
  double mean = 0.0;
  double weight = 0.0;
};

class TDigest {
 public:
  // `compression` bounds the centroid count (~2x compression centroids
  // after a compaction); 100 gives ~1% rank error in the body and much
  // better at the tails.
  explicit TDigest(double compression = 100.0);

  // Adds one sample. Non-finite values are dropped (counted in neither
  // count() nor sum()) so one NaN cannot poison the sketch — matching
  // Histogram::Observe's containment policy.
  void Add(double value, double weight = 1.0);

  // Folds `other` into this digest. Deterministically order-independent:
  // compaction is deferred until the next read, so a chain of merges feeds
  // one sorted multiset into a single compaction no matter the merge
  // order (see the header comment). Reading between merges forfeits that
  // exactness for the remaining chain.
  void Merge(const TDigest& other);

  // Interpolated value at quantile q in [0, 1]; 0.0 on an empty digest.
  double Quantile(double q) const;

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double compression() const { return compression_; }

  // Compacted centroid list, sorted by (mean, weight).
  const std::vector<TDigestCentroid>& Centroids() const;

  // {"format": "crowdtruth_tdigest", "version": 1, "compression": ...,
  //  "count": ..., "sum": ..., "min": ..., "max": ...,
  //  "centroids": [{"m": ..., "w": ...}, ...]}
  util::JsonValue ToJson() const;
  static util::Status FromJson(const util::JsonValue& doc, TDigest* out);

 private:
  // Folds buffer_ into centroids_ via the deterministic sorted compaction.
  void Compress() const;

  double compression_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  // Compacted clusters plus the uncompacted tail; Compress() is logically
  // const (it never changes the represented distribution), so accessors
  // can flush lazily.
  mutable std::vector<TDigestCentroid> centroids_;
  mutable std::vector<TDigestCentroid> buffer_;
};

}  // namespace crowdtruth::obs

#endif  // CROWDTRUTH_OBS_TDIGEST_H_
