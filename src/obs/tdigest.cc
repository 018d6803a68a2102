#include "obs/tdigest.h"

#include <algorithm>
#include <cmath>

namespace crowdtruth::obs {

namespace {

constexpr double kPi = 3.14159265358979323846;

// The k1 scale function and its inverse: k(q) = (delta / 2pi) asin(2q - 1).
// Cluster boundaries drawn in k-space give clusters O(1) k-width, which is
// narrow (accurate) near q=0 and q=1 and wide in the body.
double ScaleK(double q, double compression) {
  return compression / (2.0 * kPi) * std::asin(2.0 * q - 1.0);
}

double ScaleQ(double k, double compression) {
  return (std::sin(k * 2.0 * kPi / compression) + 1.0) / 2.0;
}

bool CentroidLess(const TDigestCentroid& a, const TDigestCentroid& b) {
  if (a.mean != b.mean) return a.mean < b.mean;
  return a.weight < b.weight;
}

}  // namespace

TDigest::TDigest(double compression)
    : compression_(compression < 10.0 ? 10.0 : compression) {
  buffer_.reserve(static_cast<size_t>(compression_));
}

void TDigest::Add(double value) {
  if (!std::isfinite(value)) return;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  buffer_.push_back({value, 1.0});
  if (buffer_.size() >= static_cast<size_t>(compression_)) Compress();
}

void TDigest::Compress() const {
  if (buffer_.empty()) return;
  std::vector<TDigestCentroid> merged;
  merged.reserve(centroids_.size() + buffer_.size());
  merged.insert(merged.end(), centroids_.begin(), centroids_.end());
  merged.insert(merged.end(), buffer_.begin(), buffer_.end());
  buffer_.clear();
  std::sort(merged.begin(), merged.end(), CentroidLess);

  double total = 0.0;
  for (const TDigestCentroid& c : merged) total += c.weight;

  centroids_.clear();
  TDigestCentroid current = merged.front();
  double weight_before = 0.0;  // weight of clusters already emitted
  double q_limit = ScaleQ(ScaleK(0.0, compression_) + 1.0, compression_);
  for (size_t i = 1; i < merged.size(); ++i) {
    const TDigestCentroid& next = merged[i];
    const double q = (weight_before + current.weight + next.weight) / total;
    if (q <= q_limit) {
      // Absorb: weighted-mean update in a fixed evaluation order, so the
      // same sorted input always produces the same bits.
      const double w = current.weight + next.weight;
      current.mean += (next.weight / w) * (next.mean - current.mean);
      current.weight = w;
    } else {
      centroids_.push_back(current);
      weight_before += current.weight;
      q_limit = ScaleQ(ScaleK(weight_before / total, compression_) + 1.0,
                       compression_);
      current = next;
    }
  }
  centroids_.push_back(current);
}

const std::vector<TDigestCentroid>& TDigest::Centroids() const {
  Compress();
  return centroids_;
}

double TDigest::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  Compress();
  q = std::clamp(q, 0.0, 1.0);
  double total = 0.0;
  for (const TDigestCentroid& c : centroids_) total += c.weight;
  const double index = q * total;

  // Each centroid is centered at its cumulative-weight midpoint; ranks
  // before the first midpoint interpolate from min, ranks past the last
  // from max.
  double cumulative = 0.0;
  double prev_midpoint = 0.0;
  double prev_mean = min_;
  for (const TDigestCentroid& c : centroids_) {
    const double midpoint = cumulative + c.weight / 2.0;
    if (index < midpoint) {
      const double span = midpoint - prev_midpoint;
      const double fraction =
          span > 0.0 ? (index - prev_midpoint) / span : 0.0;
      return prev_mean + fraction * (c.mean - prev_mean);
    }
    cumulative += c.weight;
    prev_midpoint = midpoint;
    prev_mean = c.mean;
  }
  const double span = total - prev_midpoint;
  const double fraction = span > 0.0 ? (index - prev_midpoint) / span : 1.0;
  return prev_mean + std::min(1.0, fraction) * (max_ - prev_mean);
}

}  // namespace crowdtruth::obs
