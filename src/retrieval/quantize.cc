#include "retrieval/quantize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"

namespace kgrec::retrieval {

int64_t RoundHalfEvenToInt(double v) {
  const double f = std::floor(v);
  const double frac = v - f;
  const int64_t base = static_cast<int64_t>(f);
  if (frac > 0.5) return base + 1;
  if (frac < 0.5) return base;
  return (base % 2 == 0) ? base : base + 1;  // exact tie: toward even
}

QuantizedItemFactors QuantizedItemFactors::Encode(
    const ItemFactorView& factors,
    std::span<const std::vector<int32_t>> cells) {
  const size_t n = factors.rows;
  const size_t dim = factors.dim;
  KGREC_CHECK_LE(dim, kMaxSq8Dim);

  QuantizedItemFactors q;
  q.kernel_ = factors.kernel;
  q.num_items_ = n;
  q.dim_ = dim;
  q.delta_.assign(dim, 0.0f);

  // Pass 1: per-dimension finite range. Columns with no finite entry (or
  // a constant one) keep delta 0 — every code decodes to vmin.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  q.vmin_.assign(dim, kInf);
  std::vector<float> vmax(dim, -kInf);
  kernels::FiniteColumnRange(factors.data, n, dim, q.vmin_.data(),
                             vmax.data());
  for (size_t d = 0; d < dim; ++d) {
    if (q.vmin_[d] > vmax[d]) q.vmin_[d] = vmax[d] = 0.0f;  // none finite
    // The range arithmetic runs in double so delta is the correctly
    // rounded float of (vmax - vmin) / 255 even for extreme ranges.
    q.delta_[d] = static_cast<float>(
        (static_cast<double>(vmax[d]) - static_cast<double>(q.vmin_[d])) /
        255.0);
  }
  if (factors.kernel == ScoreKernel::kNegSquaredL2) {
    // Shared step (quantize.h): the code-space distance must be
    // proportional to the grid distance, so every column uses the widest
    // column's delta. vmin stays per-dimension.
    float shared = 0.0f;
    for (size_t d = 0; d < dim; ++d) shared = std::max(shared, q.delta_[d]);
    for (size_t d = 0; d < dim; ++d) q.delta_[d] = shared;
  }

  // Cell layout: every cell starts on a block boundary. The catalog in
  // id order needs no slot maps (slot == item).
  const auto blocks_for = [](size_t rows) {
    return (rows + kBlockRows - 1) / kBlockRows;
  };
  q.cell_begin_.assign(1, 0);
  if (cells.empty()) {
    q.cell_begin_.push_back(blocks_for(n));
  } else {
    size_t total = 0;
    for (const std::vector<int32_t>& cell : cells) {
      q.cell_begin_.push_back(q.cell_begin_.back() + blocks_for(cell.size()));
      total += cell.size();
    }
    KGREC_CHECK_EQ(total, n);
    q.slot_items_.assign(q.cell_begin_.back() * kBlockRows, -1);
    q.slot_of_item_.assign(n, -1);
    for (size_t c = 0; c < cells.size(); ++c) {
      const size_t first = q.cell_begin_[c] * kBlockRows;
      for (size_t i = 0; i < cells[c].size(); ++i) {
        const int32_t item = cells[c][i];
        KGREC_CHECK(item >= 0 && static_cast<size_t>(item) < n &&
                    q.slot_of_item_[item] == -1);
        q.slot_items_[first + i] = item;
        q.slot_of_item_[item] = static_cast<int32_t>(first + i);
      }
    }
  }
  const size_t num_blocks = q.cell_begin_.back();
  q.codes_.assign(num_blocks * q.block_bytes(), 0);
  q.rows_.assign(num_blocks, {});

  // Pass 2: encode every entry against the *stored* (float) grid, so the
  // reconstruction bound is relative to exactly what DecodeRow computes,
  // straight into its block slot. Rows with any non-finite entry are
  // recorded: their true scores can be non-finite, so the scans bypass
  // the approximate pool for them.
  std::vector<float> inv_delta(dim);
  for (size_t d = 0; d < dim; ++d) inv_delta[d] = 1.0f / q.delta_[d];
  uint8_t* const codes = q.codes_.data();
  const size_t block_bytes = q.block_bytes();
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = q.slot_of_item_.empty() ? i : q.slot_of_item_[i];
    const size_t block = slot / kBlockRows;
    const size_t r = slot % kBlockRows;
    const uint32_t bit = uint32_t{1} << r;
    const bool row_finite = kernels::EncodeRowU8(
        factors.Row(i), q.vmin_.data(), q.delta_.data(), inv_delta.data(),
        dim, 2 * kBlockRows, codes + block * block_bytes + r * 2);
    q.rows_[block].live |= bit;
    if (!row_finite) q.rows_[block].nonfinite |= bit;
  }
  return q;
}

void QuantizedItemFactors::DecodeRow(size_t item, std::span<float> out) const {
  KGREC_CHECK_EQ(out.size(), dim_);
  for (size_t d = 0; d < dim_; ++d) {
    out[d] = vmin_[d] + delta_[d] * static_cast<float>(Code(item, d));
  }
}

void QuantizedItemFactors::PrepareQuery(std::span<const float> query,
                                        Sq8Query* out) const {
  KGREC_CHECK_EQ(query.size(), dim_);
  const size_t padded = 2 * dim_pairs();
  if (kernel_ == ScoreKernel::kNegSquaredL2) {
    out->weights.clear();
    out->codes.assign(padded, 0);
    float inv_delta[kMaxSq8Dim];
    for (size_t d = 0; d < dim_; ++d) inv_delta[d] = 1.0f / delta_[d];
    uint8_t codes[kMaxSq8Dim];
    kernels::EncodeRowU8(query.data(), vmin_.data(), delta_.data(), inv_delta,
                         dim_, /*pair_stride=*/2, codes);
    std::copy_n(codes, dim_, out->codes.begin());
    out->scale = 0.0f;
    out->bias = 0.0f;
    return;
  }

  // kDot. Two passes over the dimensions (no scratch buffer): the first
  // finds the symmetric-quantization scale of w[d] = q[d] * delta[d] and
  // accumulates the grid-origin bias, the second emits the 15-bit
  // weights. Sequential double accumulation — fixed order, no SIMD —
  // keeps the prepared query bitwise identical across builds.
  out->codes.clear();
  out->weights.assign(padded, 0);
  double max_w = 0.0;
  double bias = 0.0;
  for (size_t d = 0; d < dim_; ++d) {
    const float qf = query[d];
    const double qd = std::isfinite(qf) ? static_cast<double>(qf) : 0.0;
    const double w = qd * static_cast<double>(delta_[d]);
    const double mag = std::fabs(w);
    if (mag > max_w) max_w = mag;
    bias += qd * static_cast<double>(vmin_[d]);
  }
  out->bias = static_cast<float>(bias);
  if (max_w == 0.0) {
    out->scale = 0.0f;
    return;
  }
  // |W| <= 16256 keeps the int32 block sums exact up to kMaxSq8Dim.
  const double qscale = max_w / 16256.0;
  for (size_t d = 0; d < dim_; ++d) {
    const float qf = query[d];
    const double qd = std::isfinite(qf) ? static_cast<double>(qf) : 0.0;
    const double w = qd * static_cast<double>(delta_[d]);
    int64_t code = RoundHalfEvenToInt(w / qscale);
    if (code < -16256) code = -16256;
    if (code > 16256) code = 16256;
    out->weights[d] = static_cast<int16_t>(code);
  }
  out->scale = static_cast<float>(qscale);
}

uint32_t QuantizedItemFactors::ScanBlock(size_t block, const Sq8Query& q,
                                         int32_t min_score,
                                         int32_t* scores) const {
  const uint8_t* codes = block_codes(block);
  const uint32_t kept =
      kernel_ == ScoreKernel::kDot
          ? kernels::DotBlockI8(q.weights.data(), codes, dim_pairs(),
                                min_score, scores)
          : kernels::NegSquaredDistanceBlockI8(q.codes.data(), codes,
                                               dim_pairs(), min_score, scores);
  return (kept | rows_[block].nonfinite) & rows_[block].live;
}

int32_t QuantizedItemFactors::ScoreFloor(const Sq8Query& q,
                                         float worst) const {
  constexpr int32_t kNone = std::numeric_limits<int32_t>::min();
  // A non-finite worst or affine has no usable inverse: skip nothing and
  // let Push decide (a NaN worst is beaten by every non-NaN score).
  if (!std::isfinite(worst) || !std::isfinite(q.scale) ||
      !std::isfinite(q.bias)) {
    return kNone;
  }
  double estimate = static_cast<double>(worst);
  if (kernel_ == ScoreKernel::kDot) {
    if (q.scale == 0.0f) return kNone;  // every row expands to q.bias
    estimate = (estimate - static_cast<double>(q.bias)) /
               static_cast<double>(q.scale);
  }
  estimate = std::floor(estimate);
  if (estimate <= static_cast<double>(kNone)) return kNone;
  int64_t floor = estimate >= static_cast<double>(
                                  std::numeric_limits<int32_t>::max())
                      ? std::numeric_limits<int32_t>::max()
                      : static_cast<int64_t>(estimate);
  // The estimate ignores float rounding, so verify it with the very
  // expansion the scan pushes: ApproxScore is monotone, so floor - 1
  // expanding below `worst` covers every score below the floor. Step
  // down (doubling) until it does.
  for (int64_t step = 1;
       floor > kNone && !(ApproxScore(q, static_cast<int32_t>(floor - 1)) <
                          worst);
       step *= 2) {
    floor = std::max<int64_t>(kNone, floor - step);
  }
  return static_cast<int32_t>(floor);
}

}  // namespace kgrec::retrieval
