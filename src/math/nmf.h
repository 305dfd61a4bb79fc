#ifndef KGREC_MATH_NMF_H_
#define KGREC_MATH_NMF_H_

#include "math/matrix.h"
#include "math/rng.h"
#include "math/sparse.h"

namespace kgrec {

/// Result of non-negative matrix factorization R ~= U^T V with
/// U [rank x rows]^T stored as rows x rank and V as cols x rank.
struct NmfResult {
  Matrix user_factors;  ///< rows x rank
  Matrix item_factors;  ///< cols x rank
};

/// Lee-Seung multiplicative-update NMF of a (sparse, non-negative) matrix,
/// densified internally — suitable for the diffused preference matrices of
/// HeteRec/FMG (survey Eq. 16) at library scale.
NmfResult Nmf(const CsrMatrix& matrix, size_t rank, int iterations, Rng& rng);

}  // namespace kgrec

#endif  // KGREC_MATH_NMF_H_
