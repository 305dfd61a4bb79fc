#ifndef KGREC_MATH_MATRIX_H_
#define KGREC_MATH_MATRIX_H_

#include <cstddef>

#include "core/aligned.h"

namespace kgrec {

/// Row-major owning matrix of floats, used by the non-autodiff parts of
/// the library (PathSim, matrix factorization baselines, the data
/// generator); its rows feed the shared kernels (math/kernels.h)
/// directly. The backing store is 64-byte aligned (core/aligned.h) so
/// whole-matrix kernel sweeps start on a cache-line boundary.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }
  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }

 private:
  size_t rows_;
  size_t cols_;
  AlignedVector<float> data_;
};

}  // namespace kgrec

#endif  // KGREC_MATH_MATRIX_H_
