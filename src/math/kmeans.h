#ifndef KGREC_MATH_KMEANS_H_
#define KGREC_MATH_KMEANS_H_

#include <cstdint>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"

namespace kgrec {

/// Result of a k-means clustering run.
struct KMeansResult {
  /// Cluster assignment per row of the input.
  std::vector<int32_t> assignment;
  /// Cluster centroids, one row per cluster.
  Matrix centroids;
};

/// Lloyd's k-means with k-means++ style seeding. Used by the synthetic
/// world generator (attribute entities = latent clusters) and by
/// HeteRec-p's user grouping (Eq. 18 of the survey).
KMeansResult KMeans(const Matrix& points, size_t k, int max_iters, Rng& rng);

/// Deterministic, thread-count-invariant k-means, used by the retrieval
/// layer's IVF index build (DESIGN §10). All randomness comes from
/// counter-based `Rng::Fork` streams of the given seed (one stream per
/// k-means++ pick, one for empty-cluster reseeding), the parallel
/// assignment step is a pure per-point function of the centroids, and the
/// centroid update accumulates in ascending point order — so the result
/// is bitwise identical at any `num_threads >= 1`.
KMeansResult KMeansDeterministic(const Matrix& points, size_t k,
                                 int max_iters, uint64_t seed,
                                 size_t num_threads);

}  // namespace kgrec

#endif  // KGREC_MATH_KMEANS_H_
