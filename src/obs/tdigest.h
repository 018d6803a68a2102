// TDigest: a bounded-memory quantile sketch (Dunning's merging t-digest)
// for latency series: the engine's per-answer Observe cost (EngineStats)
// and every summary family in the metric registry (obs::Digest).
//
// Memory is O(compression) centroids regardless of sample count; accuracy
// concentrates at the tails (relative rank error shrinks toward q=0 and
// q=1), which is exactly where the adaptive controller steers — p99, not
// the mean. count() and sum() are exact, so the same sketch also yields
// the exact mean.
//
// Compaction sorts the buffered centroids by (mean, weight) and clusters
// them in a fixed evaluation order, so the same sequence of samples always
// produces bit-identical centroids and quantiles.
//
// Not thread-safe; the registry wraps one TDigest per metric child behind
// a mutex (see obs::Digest in obs/metrics.h).
#ifndef CROWDTRUTH_OBS_TDIGEST_H_
#define CROWDTRUTH_OBS_TDIGEST_H_

#include <cstdint>
#include <vector>

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
  void Add(double value);

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
