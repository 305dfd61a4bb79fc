#include "math/kmeans.h"

#include <limits>

#include "core/check.h"
#include "core/thread_pool.h"
#include "math/kernels.h"

namespace kgrec {

KMeansResult KMeans(const Matrix& points, size_t k, int max_iters, Rng& rng) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  KGREC_CHECK_GT(k, 0u);
  KGREC_CHECK_GE(n, k);

  KMeansResult result;
  result.assignment.assign(n, 0);
  result.centroids = Matrix(k, d);

  // k-means++ seeding.
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  size_t first = rng.UniformInt(n);
  for (size_t j = 0; j < d; ++j) result.centroids.At(0, j) = points.At(first, j);
  for (size_t c = 1; c < k; ++c) {
    for (size_t i = 0; i < n; ++i) {
      double dist = kernels::SquaredDistance(points.Row(i),
                                             result.centroids.Row(c - 1), d);
      if (dist < min_dist[i]) min_dist[i] = dist;
    }
    std::vector<double> weights(min_dist.begin(), min_dist.end());
    double total = 0.0;
    for (double w : weights) total += w;
    size_t chosen = total > 0.0 ? rng.Categorical(weights) : rng.UniformInt(n);
    for (size_t j = 0; j < d; ++j)
      result.centroids.At(c, j) = points.At(chosen, j);
  }

  std::vector<size_t> counts(k, 0);
  for (int iter = 0; iter < max_iters; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      float best = std::numeric_limits<float>::max();
      int32_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        float dist =
            kernels::SquaredDistance(points.Row(i), result.centroids.Row(c), d);
        if (dist < best) {
          best = dist;
          best_c = static_cast<int32_t>(c);
        }
      }
      if (best_c != result.assignment[i]) {
        result.assignment[i] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Recompute centroids.
    result.centroids = Matrix(k, d);
    counts.assign(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const int32_t c = result.assignment[i];
      ++counts[c];
      kernels::Axpy(1.0f, points.Row(i), result.centroids.Row(c), d);
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        kernels::Scale(result.centroids.Row(c), d, 1.0f / counts[c]);
      } else {
        // Re-seed an empty cluster at a random point.
        size_t pick = rng.UniformInt(n);
        for (size_t j = 0; j < d; ++j)
          result.centroids.At(c, j) = points.At(pick, j);
      }
    }
  }
  return result;
}

KMeansResult KMeansDeterministic(const Matrix& points, size_t k,
                                 int max_iters, uint64_t seed,
                                 size_t num_threads) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  KGREC_CHECK_GT(k, 0u);
  KGREC_CHECK_GE(n, k);
  if (num_threads == 0) num_threads = 1;
  const Rng base(seed);

  KMeansResult result;
  result.assignment.assign(n, 0);
  result.centroids = Matrix(k, d);

  // k-means++ seeding. The picks are inherently sequential (each depends
  // on the distances to all previous centroids) but each draws from its
  // own Fork(c) counter stream, so the seeding is a pure function of
  // (seed, points) with no shared generator state.
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  const size_t first = Rng(base.Fork(0)).UniformInt(n);
  for (size_t j = 0; j < d; ++j) {
    result.centroids.At(0, j) = points.At(first, j);
  }
  for (size_t c = 1; c < k; ++c) {
    const Status status = ParallelFor(
        n, num_threads, [&](size_t begin, size_t end) -> Status {
          for (size_t i = begin; i < end; ++i) {
            const double dist = kernels::SquaredDistance(
                points.Row(i), result.centroids.Row(c - 1), d);
            if (dist < min_dist[i]) min_dist[i] = dist;
          }
          return Status::OK();
        });
    KGREC_CHECK(status.ok());
    double total = 0.0;
    for (double w : min_dist) total += w;
    Rng pick_rng = base.Fork(c);
    const size_t chosen =
        total > 0.0 ? pick_rng.Categorical(min_dist) : pick_rng.UniformInt(n);
    for (size_t j = 0; j < d; ++j) {
      result.centroids.At(c, j) = points.At(chosen, j);
    }
  }

  std::vector<size_t> counts(k, 0);
  for (int iter = 0; iter < max_iters; ++iter) {
    // Assignment: each point's nearest centroid is a pure function of the
    // centroid matrix, and each chunk writes only its own slots — bitwise
    // identical at any thread count.
    bool changed = false;
    std::vector<uint8_t> chunk_changed(n, 0);
    const Status status = ParallelFor(
        n, num_threads, [&](size_t begin, size_t end) -> Status {
          for (size_t i = begin; i < end; ++i) {
            float best = std::numeric_limits<float>::max();
            int32_t best_c = 0;
            for (size_t c = 0; c < k; ++c) {
              const float dist = kernels::SquaredDistance(
                  points.Row(i), result.centroids.Row(c), d);
              if (dist < best) {
                best = dist;
                best_c = static_cast<int32_t>(c);
              }
            }
            if (best_c != result.assignment[i]) {
              result.assignment[i] = best_c;
              chunk_changed[i] = 1;
            }
          }
          return Status::OK();
        });
    KGREC_CHECK(status.ok());
    for (uint8_t flag : chunk_changed) changed |= (flag != 0);
    if (!changed && iter > 0) break;

    // Update: serial accumulation in ascending point order keeps the
    // float sums independent of the thread count.
    result.centroids = Matrix(k, d);
    counts.assign(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const int32_t c = result.assignment[i];
      ++counts[c];
      kernels::Axpy(1.0f, points.Row(i), result.centroids.Row(c), d);
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        kernels::Scale(result.centroids.Row(c), d, 1.0f / counts[c]);
      } else {
        // Deterministic empty-cluster reseed from the iteration/cluster
        // counter stream.
        const size_t pick =
            Rng(base.Fork((static_cast<uint64_t>(iter) + 1) * k + c))
                .UniformInt(n);
        for (size_t j = 0; j < d; ++j) {
          result.centroids.At(c, j) = points.At(pick, j);
        }
      }
    }
  }
  return result;
}

}  // namespace kgrec
