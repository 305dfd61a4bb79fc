#include "math/nmf.h"

#include <algorithm>

#include "core/check.h"
#include "math/kernels.h"

namespace kgrec {

NmfResult Nmf(const CsrMatrix& matrix, size_t rank, int iterations,
              Rng& rng) {
  const size_t m = matrix.rows();
  const size_t n = matrix.cols();
  KGREC_CHECK_GT(rank, 0u);
  constexpr float kEps = 1e-9f;

  // Densify R (library-scale matrices only).
  Matrix r(m, n);
  for (size_t i = 0; i < m; ++i) {
    const int32_t* cols = matrix.RowCols(i);
    const float* vals = matrix.RowVals(i);
    for (size_t k = 0; k < matrix.RowNnz(i); ++k) {
      r.At(i, cols[k]) = std::max(0.0f, vals[k]);
    }
  }

  NmfResult out;
  out.user_factors = Matrix(m, rank);
  out.item_factors = Matrix(n, rank);
  for (size_t i = 0; i < out.user_factors.size(); ++i) {
    out.user_factors.data()[i] = static_cast<float>(rng.Uniform(0.01, 1.0));
  }
  for (size_t i = 0; i < out.item_factors.size(); ++i) {
    out.item_factors.data()[i] = static_cast<float>(rng.Uniform(0.01, 1.0));
  }

  Matrix num_u(m, rank), num_v(n, rank), gram(rank, rank), denom(m, rank);
  for (int iter = 0; iter < iterations; ++iter) {
    Matrix& u = out.user_factors;
    Matrix& v = out.item_factors;
    // U <- U * (R V) / (U V^T V)
    kernels::MatMul(r.data(), v.data(), num_u.data(), m, n, rank);
    // gram = V^T V.
    for (size_t a = 0; a < rank; ++a) {
      for (size_t b = 0; b < rank; ++b) {
        float acc = 0.0f;
        for (size_t j = 0; j < n; ++j) acc += v.At(j, a) * v.At(j, b);
        gram.At(a, b) = acc;
      }
    }
    kernels::MatMul(u.data(), gram.data(), denom.data(), m, rank, rank);
    for (size_t i = 0; i < u.size(); ++i) {
      u.data()[i] *= num_u.data()[i] / (denom.data()[i] + kEps);
    }
    // V <- V * (R^T U) / (V U^T U)
    for (size_t a = 0; a < rank; ++a) {
      for (size_t b = 0; b < rank; ++b) {
        float acc = 0.0f;
        for (size_t i = 0; i < m; ++i) acc += u.At(i, a) * u.At(i, b);
        gram.At(a, b) = acc;
      }
    }
    for (size_t j = 0; j < n; ++j) {
      for (size_t a = 0; a < rank; ++a) {
        float acc = 0.0f;
        for (size_t i = 0; i < m; ++i) acc += r.At(i, j) * u.At(i, a);
        num_v.At(j, a) = acc;
      }
    }
    Matrix denom_v(n, rank);
    kernels::MatMul(v.data(), gram.data(), denom_v.data(), n, rank, rank);
    for (size_t i = 0; i < v.size(); ++i) {
      v.data()[i] *= num_v.data()[i] / (denom_v.data()[i] + kEps);
    }
  }
  return out;
}

}  // namespace kgrec
