// Tests for the t-digest (obs/tdigest.h): quantile accuracy against exact
// order statistics, non-finite containment and bounded memory.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "obs/tdigest.h"
#include "util/rng.h"

namespace crowdtruth::obs {
namespace {

// Exact quantile by midpoint convention on a sorted sample, the same
// convention the digest interpolates toward.
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

TEST(TDigestTest, EmptyDigestIsZero) {
  const TDigest digest;
  EXPECT_EQ(digest.count(), 0);
  EXPECT_EQ(digest.sum(), 0.0);
  EXPECT_EQ(digest.Quantile(0.5), 0.0);
  EXPECT_TRUE(digest.Centroids().empty());
}

TEST(TDigestTest, SingleValue) {
  TDigest digest;
  digest.Add(3.5);
  EXPECT_EQ(digest.count(), 1);
  EXPECT_DOUBLE_EQ(digest.sum(), 3.5);
  EXPECT_DOUBLE_EQ(digest.Quantile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(digest.Quantile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(digest.Quantile(1.0), 3.5);
}

TEST(TDigestTest, NonFiniteSamplesAreDropped) {
  TDigest digest;
  digest.Add(1.0);
  digest.Add(std::nan(""));
  digest.Add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(digest.count(), 1);
  EXPECT_DOUBLE_EQ(digest.sum(), 1.0);
}

TEST(TDigestTest, MinMaxTracked) {
  TDigest digest;
  for (int i = 100; i >= 1; --i) digest.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(digest.min(), 1.0);
  EXPECT_DOUBLE_EQ(digest.max(), 100.0);
  EXPECT_DOUBLE_EQ(digest.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(digest.Quantile(1.0), 100.0);
}

TEST(TDigestTest, QuantileErrorBoundsUniform) {
  // 20k uniform samples: rank error of the interpolated quantile against
  // the exact order statistic must stay small in the body and tighter at
  // the tails (the k1 scale function concentrates resolution there).
  util::Rng rng(7);
  TDigest digest(100.0);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Uniform();
    values.push_back(v);
    digest.Add(v);
  }
  // Uniform on [0,1): value error ~= rank error.
  for (const double q : {0.5, 0.9}) {
    EXPECT_NEAR(digest.Quantile(q), ExactQuantile(values, q), 0.02)
        << "q=" << q;
  }
  for (const double q : {0.01, 0.05, 0.95, 0.99, 0.999}) {
    EXPECT_NEAR(digest.Quantile(q), ExactQuantile(values, q), 0.005)
        << "q=" << q;
  }
}

TEST(TDigestTest, QuantileErrorBoundsLogNormalTail) {
  // Latency-shaped data: heavy right tail. Check relative error at the
  // tail quantiles the controller steers on.
  util::Rng rng(11);
  TDigest digest(100.0);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(rng.Normal(0.0, 1.0) * 1.5);
    values.push_back(v);
    digest.Add(v);
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = ExactQuantile(values, q);
    EXPECT_NEAR(digest.Quantile(q), exact, 0.05 * exact) << "q=" << q;
  }
}

TEST(TDigestTest, QuantilesAreMonotone) {
  util::Rng rng(3);
  TDigest digest(50.0);
  for (int i = 0; i < 5000; ++i) digest.Add(rng.Normal(0.0, 1.0));
  double last = digest.Quantile(0.0);
  for (double q = 0.05; q <= 1.0 + 1e-9; q += 0.05) {
    const double value = digest.Quantile(q);
    EXPECT_GE(value, last) << "q=" << q;
    last = value;
  }
}

TEST(TDigestTest, BoundedMemoryUnderLongStreams) {
  TDigest digest(100.0);
  util::Rng rng(1);
  for (int i = 0; i < 200000; ++i) digest.Add(rng.Uniform());
  // Merging compaction keeps ~2x compression centroids.
  EXPECT_LE(digest.Centroids().size(), 250u);
  EXPECT_EQ(digest.count(), 200000);
}

}  // namespace
}  // namespace crowdtruth::obs
