// Lockdown of the SQ8 quantizer (src/retrieval/quantize.h):
//
//  * RoundHalfEvenToInt golden vectors — the deterministic tie-to-even
//    rounding the encode affine is specified against.
//  * Edge cases: all-equal (zero-range) dimensions, NaN/±inf factor
//    entries, dim 0 and 1, a catalog of one item.
//  * The documented Encode→DecodeRow reconstruction-error bound, per
//    entry, for every factorizable registry model's export.
//  * PrepareQuery: the kDot affine decomposition
//    (bias + scale · Σ W[d]·c[d], 15-bit W) against its analytic error
//    bound, the kNegSquaredL2 grid encoding (shared delta), and the
//    non-finite query policy.
//  * The block layout: cells, padding rows and dims, the slot maps, and
//    the pool score floor the block scan rejects rows against.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "core/registry.h"
#include "data/synthetic.h"
#include "math/kernels.h"
#include "math/rng.h"
#include "retrieval/factors.h"
#include "retrieval/quantize.h"

namespace kgrec {
namespace {

using retrieval::ItemFactors;
using retrieval::QuantizedItemFactors;
using retrieval::RoundHalfEvenToInt;
using retrieval::ScoreKernel;
using retrieval::Sq8Query;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

ItemFactors MakeFactors(ScoreKernel kernel, size_t n, size_t dim) {
  ItemFactors factors;
  factors.kernel = kernel;
  factors.items = Matrix(n, dim);
  return factors;
}

ItemFactors RandomFactors(ScoreKernel kernel, size_t n, size_t dim,
                          uint64_t seed) {
  ItemFactors factors = MakeFactors(kernel, n, dim);
  Rng rng(seed);
  for (size_t i = 0; i < factors.items.size(); ++i) {
    factors.items.data()[i] = static_cast<float>(rng.Normal());
  }
  return factors;
}

/// Integer scan score of every item, through the block scan itself
/// (ScanBlock with no floor), indexed by item id.
std::vector<int32_t> ScanScores(const QuantizedItemFactors& q,
                                const Sq8Query& prepared) {
  std::vector<int32_t> out(q.num_items(), 0);
  int32_t scores[QuantizedItemFactors::kBlockRows];
  for (size_t b = 0; b < q.cell_begin(q.num_cells()); ++b) {
    const uint32_t rows = q.ScanBlock(
        b, prepared, std::numeric_limits<int32_t>::min(), scores);
    EXPECT_EQ(rows, q.live_rows(b)) << "block " << b;
    for (size_t r = 0; r < QuantizedItemFactors::kBlockRows; ++r) {
      if ((q.live_rows(b) >> r) & 1u) out[q.ItemAt(b, r)] = scores[r];
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// QuantizeRounding: the tie-to-even specification.

TEST(QuantizeRounding, GoldenVectors) {
  // Ties land on the even neighbour, both signs; non-ties round to
  // nearest as usual.
  EXPECT_EQ(RoundHalfEvenToInt(0.0), 0);
  EXPECT_EQ(RoundHalfEvenToInt(0.5), 0);
  EXPECT_EQ(RoundHalfEvenToInt(1.5), 2);
  EXPECT_EQ(RoundHalfEvenToInt(2.5), 2);
  EXPECT_EQ(RoundHalfEvenToInt(3.5), 4);
  EXPECT_EQ(RoundHalfEvenToInt(254.5), 254);
  EXPECT_EQ(RoundHalfEvenToInt(-0.5), 0);
  EXPECT_EQ(RoundHalfEvenToInt(-1.5), -2);
  EXPECT_EQ(RoundHalfEvenToInt(-2.5), -2);
  EXPECT_EQ(RoundHalfEvenToInt(-3.5), -4);
  EXPECT_EQ(RoundHalfEvenToInt(2.4999999), 2);
  EXPECT_EQ(RoundHalfEvenToInt(2.5000001), 3);
  EXPECT_EQ(RoundHalfEvenToInt(-2.4999999), -2);
  EXPECT_EQ(RoundHalfEvenToInt(126.49), 126);
  EXPECT_EQ(RoundHalfEvenToInt(126.51), 127);
}

TEST(QuantizeRounding, DoesNotDependOnRoundingDirectionOfRint) {
  // The whole point of the explicit floor/frac form: values exactly
  // between two grid points must be stable however libm/rounding-mode
  // details shift — sweep a dense grid of half-integers.
  for (int i = -512; i <= 512; ++i) {
    const double v = i + 0.5;
    const int64_t r = RoundHalfEvenToInt(v);
    EXPECT_EQ(r % 2, 0) << v;           // always even
    EXPECT_LE(std::abs(r - v), 0.5) << v;  // always a nearest neighbour
  }
}

// ---------------------------------------------------------------------
// QuantizeEncode: grids, degenerate shapes, non-finite policy.

TEST(QuantizeEncode, AllEqualDimensionHasZeroDeltaAndExactDecode) {
  ItemFactors factors = MakeFactors(ScoreKernel::kDot, 5, 3);
  for (size_t i = 0; i < 5; ++i) {
    float* row = factors.items.Row(i);
    row[0] = 2.75f;                          // constant column
    row[1] = static_cast<float>(i) - 2.0f;   // spread column
    row[2] = -1.5f;                          // constant column
  }
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  EXPECT_EQ(q.grid_delta()[0], 0.0f);
  EXPECT_GT(q.grid_delta()[1], 0.0f);
  EXPECT_EQ(q.grid_delta()[2], 0.0f);
  std::vector<float> decoded(3);
  for (size_t i = 0; i < 5; ++i) {
    q.DecodeRow(i, decoded);
    // Zero-range columns decode exactly: vmin + 0 * code == the value.
    EXPECT_EQ(decoded[0], 2.75f) << i;
    EXPECT_EQ(decoded[2], -1.5f) << i;
    // The spread column's grid has delta = 4/255; integer row values sit
    // within half a step of their decode.
    EXPECT_NEAR(decoded[1], factors.items.At(i, 1), 4.0f / 255.0f / 2.0f + 1e-5f);
  }
}

TEST(QuantizeEncode, NonFiniteEntriesFollowTheDocumentedPolicy) {
  ItemFactors factors = MakeFactors(ScoreKernel::kDot, 4, 2);
  // Column 0: finite range [-1, 3] plus one NaN, one +inf, one -inf.
  factors.items.At(0, 0) = -1.0f;
  factors.items.At(1, 0) = kNan;
  factors.items.At(2, 0) = kInf;
  factors.items.At(3, 0) = 3.0f;
  // Column 1: -inf among finites.
  factors.items.At(0, 1) = 0.0f;
  factors.items.At(1, 1) = 1.0f;
  factors.items.At(2, 1) = -kInf;
  factors.items.At(3, 1) = 0.5f;

  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  // Ranges come from the finite entries only.
  EXPECT_EQ(q.grid_min()[0], -1.0f);
  EXPECT_FLOAT_EQ(q.grid_delta()[0], 4.0f / 255.0f);
  EXPECT_EQ(q.grid_min()[1], 0.0f);
  // NaN and -inf map to code 0, +inf to code 255.
  EXPECT_EQ(q.Code(1, 0), 0);
  EXPECT_EQ(q.Code(2, 0), 255);
  EXPECT_EQ(q.Code(2, 1), 0);
  // Decodes are always finite (the re-rank sees the true values).
  std::vector<float> decoded(2);
  for (size_t i = 0; i < 4; ++i) {
    q.DecodeRow(i, decoded);
    EXPECT_TRUE(std::isfinite(decoded[0])) << i;
    EXPECT_TRUE(std::isfinite(decoded[1])) << i;
  }
}

TEST(QuantizeEncode, L2GridSharesOneDeltaAcrossDimensions) {
  // kNegSquaredL2: every column uses the widest column's step (quantize.h
  // — the code-space distance must be proportional to the grid distance),
  // while vmin stays per-dimension. kDot keeps per-dim deltas.
  ItemFactors l2 = MakeFactors(ScoreKernel::kNegSquaredL2, 3, 3);
  ItemFactors dot = MakeFactors(ScoreKernel::kDot, 3, 3);
  for (size_t i = 0; i < 3; ++i) {
    const float x = static_cast<float>(i);
    for (ItemFactors* f : {&l2, &dot}) {
      f->items.At(i, 0) = x;           // range 2
      f->items.At(i, 1) = 10.0f * x;   // range 20 — the widest
      f->items.At(i, 2) = 5.0f + x;    // range 2, offset vmin
    }
  }
  const QuantizedItemFactors ql2 = QuantizedItemFactors::Encode(l2);
  const float shared = 20.0f / 255.0f;
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(ql2.grid_delta()[d], shared) << d;
  }
  EXPECT_EQ(ql2.grid_min()[0], 0.0f);
  EXPECT_EQ(ql2.grid_min()[2], 5.0f);
  const QuantizedItemFactors qdot = QuantizedItemFactors::Encode(dot);
  EXPECT_FLOAT_EQ(qdot.grid_delta()[0], 2.0f / 255.0f);
  EXPECT_FLOAT_EQ(qdot.grid_delta()[1], 20.0f / 255.0f);
}

TEST(QuantizeEncode, NonfiniteRowsAreRecorded) {
  ItemFactors factors = RandomFactors(ScoreKernel::kDot, 6, 3, 41);
  factors.items.At(1, 2) = kNan;
  factors.items.At(4, 0) = kInf;
  factors.items.At(4, 1) = -kInf;
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  EXPECT_EQ(q.nonfinite_rows(0), (1u << 1) | (1u << 4));
  const QuantizedItemFactors clean =
      QuantizedItemFactors::Encode(RandomFactors(ScoreKernel::kDot, 6, 3, 42));
  EXPECT_EQ(clean.nonfinite_rows(0), 0u);
}

TEST(QuantizeEncode, AllNonFiniteColumnDegradesToZeroGrid) {
  ItemFactors factors = MakeFactors(ScoreKernel::kDot, 2, 1);
  factors.items.At(0, 0) = kNan;
  factors.items.At(1, 0) = kInf;
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  EXPECT_EQ(q.grid_min()[0], 0.0f);
  EXPECT_EQ(q.grid_delta()[0], 0.0f);
  EXPECT_EQ(q.Code(0, 0), 0);
  EXPECT_EQ(q.Code(1, 0), 255);
}

TEST(QuantizeEncode, DegenerateShapes) {
  // dim 0: encode, decode and query-prep are all well-defined no-ops.
  {
    const ItemFactors factors = MakeFactors(ScoreKernel::kDot, 3, 0);
    const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
    EXPECT_EQ(q.dim(), 0u);
    EXPECT_EQ(q.code_bytes(), 0u);
    q.DecodeRow(1, {});
    Sq8Query query;
    q.PrepareQuery({}, &query);
    EXPECT_EQ(query.weights.size(), 0u);
    EXPECT_EQ(query.scale, 0.0f);
    EXPECT_EQ(query.bias, 0.0f);
  }
  // dim 1.
  {
    ItemFactors factors = MakeFactors(ScoreKernel::kDot, 3, 1);
    factors.items.At(0, 0) = -2.0f;
    factors.items.At(1, 0) = 0.0f;
    factors.items.At(2, 0) = 2.0f;
    const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
    EXPECT_EQ(q.Code(0, 0), 0);
    EXPECT_EQ(q.Code(2, 0), 255);
    std::vector<float> decoded(1);
    q.DecodeRow(1, decoded);
    EXPECT_NEAR(decoded[0], 0.0f, 4.0f / 255.0f / 2.0f + 1e-5f);
  }
  // Catalog of one item: every column is zero-range, decode is exact.
  {
    ItemFactors factors = MakeFactors(ScoreKernel::kNegSquaredL2, 1, 4);
    for (size_t d = 0; d < 4; ++d) {
      factors.items.At(0, d) = 0.25f * static_cast<float>(d) - 1.0f;
    }
    const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
    std::vector<float> decoded(4);
    q.DecodeRow(0, decoded);
    for (size_t d = 0; d < 4; ++d) {
      EXPECT_EQ(decoded[d], factors.items.At(0, d)) << d;
    }
  }
}

// ---------------------------------------------------------------------
// QuantizeBound: the documented reconstruction bound, zoo-wide.

void ExpectReconstructionBound(const ItemFactors& factors,
                               const std::string& what) {
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  const auto vmin = q.grid_min();
  const auto delta = q.grid_delta();
  std::vector<float> decoded(q.dim());
  for (size_t i = 0; i < q.num_items(); ++i) {
    q.DecodeRow(i, decoded);
    const float* row = factors.items.Row(i);
    for (size_t d = 0; d < q.dim(); ++d) {
      if (!std::isfinite(row[d])) continue;
      // |x - x_hat| <= delta/2 + eps * (|vmin| + 255 * delta): the
      // half-step quantization error plus the float rounding of the
      // decode affine (quantize.h). eps is taken at 2^-22 to cover the
      // affine's two roundings with margin.
      const float grid_mag =
          std::fabs(vmin[d]) + 255.0f * delta[d];
      const float bound = 0.5f * delta[d] + grid_mag / 4194304.0f;
      ASSERT_LE(std::fabs(row[d] - decoded[d]), bound)
          << what << " item " << i << " dim " << d << " x=" << row[d]
          << " x_hat=" << decoded[d] << " delta=" << delta[d];
    }
  }
}

TEST(QuantizeBound, HoldsForRandomFactorsBothKernels) {
  ExpectReconstructionBound(
      RandomFactors(ScoreKernel::kDot, 200, 24, 1311), "dot");
  ExpectReconstructionBound(
      RandomFactors(ScoreKernel::kNegSquaredL2, 200, 24, 1312), "l2");
}

TEST(QuantizeBound, HoldsForEveryFactorizableModelExport) {
  WorldConfig config;
  config.num_users = 20;
  config.num_items = 30;
  config.avg_interactions_per_user = 6.0;
  config.item_relations = {{"genre", 4, 1, 0.9f}};
  config.seed = 616;
  const SyntheticWorld world = GenerateWorld(config);
  Rng rng(13);
  const DataSplit split = RatioSplit(world.interactions, 0.25, rng);
  const UserItemGraph ui_graph = BuildUserItemGraph(world, split.train);
  RecContext ctx;
  ctx.train = &split.train;
  ctx.item_kg = &world.item_kg;
  ctx.user_item_graph = &ui_graph;
  ctx.seed = 29;

  for (const std::string& name : FactorizableMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    model->Fit(ctx);
    const DotProductFactors* factors = AsFactorizable(*model);
    ASSERT_NE(factors, nullptr) << name;
    // The int32 block sums are exact only up to kMaxSq8Dim dims.
    EXPECT_LE(factors->factor_dim(), retrieval::kMaxSq8Dim) << name;
    ExpectReconstructionBound(factors->ExportItemFactors(), name);
  }
}

// ---------------------------------------------------------------------
// QuantizeQuery: the prepared-query decompositions.

TEST(QuantizeQuery, DotApproximationStaysWithinItsAnalyticBound) {
  const ItemFactors factors = RandomFactors(ScoreKernel::kDot, 100, 16, 77);
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  Rng rng(78);
  std::vector<float> query(16);
  std::vector<float> decoded(16);
  Sq8Query prepared;
  for (int trial = 0; trial < 10; ++trial) {
    for (float& v : query) v = static_cast<float>(rng.Normal());
    q.PrepareQuery(query, &prepared);
    ASSERT_EQ(prepared.weights.size(), 16u);
    const std::vector<int32_t> idot = ScanScores(q, prepared);
    for (size_t i = 0; i < q.num_items(); ++i) {
      const float approx = q.ApproxScore(prepared, idot[i]);
      // Against the *decoded* row the only approximation left is the
      // 15-bit weight rounding: per dim |w - scale*W| <= scale/2, each
      // scaled by a code <= 255 — plus float-arithmetic slack on the
      // expansion.
      q.DecodeRow(i, decoded);
      const float exact = kernels::Dot(query.data(), decoded.data(), 16);
      const float bound =
          0.5f * prepared.scale * 255.0f * 16.0f + 1e-3f * std::fabs(exact) +
          1e-4f;
      EXPECT_LE(std::fabs(approx - exact), bound)
          << "trial " << trial << " item " << i;
    }
  }
}

TEST(QuantizeQuery, FifteenBitWeightsKeepEveryDimension) {
  // One dimension with a huge delta (an outlier-stretched column) next
  // to ordinary ones: a single i8 weight vector would collapse to
  // one-hot here. The 15-bit weights must keep every
  // |w[d]| >= max|w|/32512 at a nonzero integer weight.
  ItemFactors factors = MakeFactors(ScoreKernel::kDot, 2, 4);
  factors.items.At(0, 0) = 0.0f;
  factors.items.At(1, 0) = 1000.0f;  // delta[0] ~ 3.92
  for (size_t d = 1; d < 4; ++d) {
    factors.items.At(0, d) = 0.0f;
    factors.items.At(1, d) = 1.0f;  // delta[d] ~ 0.0039
  }
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  const std::vector<float> query{1.0f, 1.0f, 1.0f, 1.0f};
  Sq8Query prepared;
  q.PrepareQuery(query, &prepared);
  for (size_t d = 0; d < 4; ++d) {
    const int32_t weight = prepared.weights[d];
    EXPECT_NE(weight, 0) << d;
    // The integer weight is the round-half-even image of w[d]/scale, so
    // it stays within half a unit of it.
    const double w = static_cast<double>(query[d]) * q.grid_delta()[d];
    EXPECT_LE(std::fabs(static_cast<double>(weight) -
                        w / static_cast<double>(prepared.scale)),
              0.5 + 1e-6)
        << d;
    EXPECT_GE(weight, -16256);
    EXPECT_LE(weight, 16256);
  }
  // The anchor dimension maps to exactly 16256.
  EXPECT_EQ(prepared.weights[0], 16256);
}

TEST(QuantizeQuery, L2QueryLandsOnTheItemGrid) {
  const ItemFactors factors =
      RandomFactors(ScoreKernel::kNegSquaredL2, 50, 8, 99);
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  Sq8Query prepared;
  // A query equal to item 7's decoded row must encode to item 7's codes
  // exactly — integer distance 0 to itself.
  std::vector<float> decoded(8);
  q.DecodeRow(7, decoded);
  q.PrepareQuery(decoded, &prepared);
  ASSERT_EQ(prepared.codes.size(), 8u);
  for (size_t d = 0; d < 8; ++d) {
    EXPECT_EQ(prepared.codes[d], q.Code(7, d)) << d;
  }
  EXPECT_EQ(ScanScores(q, prepared)[7], 0);
}

TEST(QuantizeQuery, ZeroAndNonFiniteQueriesAreSafe) {
  const ItemFactors factors = RandomFactors(ScoreKernel::kDot, 20, 4, 55);
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  Sq8Query prepared;

  const std::vector<float> zero(4, 0.0f);
  q.PrepareQuery(zero, &prepared);
  EXPECT_EQ(prepared.scale, 0.0f);
  EXPECT_EQ(prepared.bias, 0.0f);
  for (int16_t w : prepared.weights) EXPECT_EQ(w, 0);
  // Every row ties at the bias, so no score floor may reject any of them.
  EXPECT_EQ(q.ScoreFloor(prepared, q.ApproxScore(prepared, 0)),
            std::numeric_limits<int32_t>::min());

  // Non-finite query entries are treated as 0 in the approximate scan:
  // the prepared query must stay finite.
  const std::vector<float> weird{kNan, 1.0f, -kInf, kInf};
  q.PrepareQuery(weird, &prepared);
  EXPECT_TRUE(std::isfinite(prepared.scale));
  EXPECT_TRUE(std::isfinite(prepared.bias));
  const int32_t score = ScanScores(q, prepared)[0];
  EXPECT_TRUE(std::isfinite(q.ApproxScore(prepared, score)));
}

TEST(QuantizeQuery, CodeBytesAreAQuarterOfTheFloatMatrix) {
  const ItemFactors factors = RandomFactors(ScoreKernel::kDot, 128, 32, 5);
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  EXPECT_EQ(q.code_bytes(), 128u * 32u);
  EXPECT_EQ(q.code_bytes() * 4, factors.items.size() * sizeof(float));
  EXPECT_EQ(q.grid_bytes(), 2u * 32u * sizeof(float));
}

// ---------------------------------------------------------------------
// QuantizeLayout: the [block][dim pair][row][2] blocks, cells and slots.

TEST(QuantizeLayout, CellsStartOnBlockBoundariesAndKeepTheirOrder) {
  // 70 items, dim 5 (an odd dim pads its last pair), in three cells of
  // 33, 32 and 5 items given in a scrambled order.
  const ItemFactors factors = RandomFactors(ScoreKernel::kDot, 70, 5, 7);
  std::vector<std::vector<int32_t>> cells(3);
  for (int32_t i = 0; i < 70; ++i) {
    const int32_t item = (i * 37) % 70;
    cells[i < 33 ? 0 : (i < 65 ? 1 : 2)].push_back(item);
  }
  const QuantizedItemFactors flat = QuantizedItemFactors::Encode(factors);
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors, cells);
  ASSERT_EQ(flat.num_cells(), 1u);
  EXPECT_EQ(flat.cell_begin(1), 3u);  // ceil(70 / 32)
  ASSERT_EQ(q.num_cells(), 3u);
  EXPECT_EQ(q.cell_begin(0), 0u);
  EXPECT_EQ(q.cell_begin(1), 2u);
  EXPECT_EQ(q.cell_begin(2), 3u);
  EXPECT_EQ(q.cell_begin(3), 4u);
  EXPECT_EQ(q.dim_pairs(), 3u);
  EXPECT_EQ(q.code_bytes(), 4u * 3u * 2u * 32u);
  EXPECT_EQ(q.live_rows(0), 0xFFFFFFFFu);
  EXPECT_EQ(q.live_rows(1), 0x1u);
  EXPECT_EQ(q.live_rows(2), 0xFFFFFFFFu);
  EXPECT_EQ(q.live_rows(3), 0x1Fu);
  EXPECT_EQ(flat.live_rows(2), 0x3Fu);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < cells[c].size(); ++i) {
      const size_t slot = q.cell_begin(c) * 32 + i;
      EXPECT_EQ(q.ItemAt(slot / 32, slot % 32), cells[c][i]);
    }
  }
  // Same grid, same codes per item, whatever the layout.
  for (size_t i = 0; i < 70; ++i) {
    EXPECT_EQ(flat.ItemAt(i / 32, i % 32), static_cast<int32_t>(i));
    for (size_t d = 0; d < 5; ++d) {
      EXPECT_EQ(q.Code(i, d), flat.Code(i, d)) << i << " " << d;
    }
  }
  // The block scan agrees with the codes, layout by layout.
  Sq8Query prepared;
  const std::vector<float> query{0.5f, -1.0f, 2.0f, 0.25f, -0.75f};
  flat.PrepareQuery(query, &prepared);
  ASSERT_EQ(prepared.weights.size(), 6u);
  EXPECT_EQ(prepared.weights[5], 0);  // the padded dim
  const std::vector<int32_t> scores = ScanScores(q, prepared);
  EXPECT_EQ(scores, ScanScores(flat, prepared));
  for (size_t i = 0; i < 70; ++i) {
    int32_t want = 0;
    for (size_t d = 0; d < 5; ++d) {
      want += prepared.weights[d] * flat.Code(i, d);
    }
    EXPECT_EQ(scores[i], want) << i;
  }
}

TEST(QuantizeLayout, NonFiniteRowsSurviveEveryFloor) {
  // Item 33 (row 1 of the tail block) holds a NaN: ScanBlock reports it
  // even above every possible score, and never reports a padding row.
  ItemFactors factors = RandomFactors(ScoreKernel::kDot, 34, 3, 8);
  factors.items.At(33, 1) = kNan;
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  EXPECT_EQ(q.nonfinite_rows(0), 0u);
  EXPECT_EQ(q.nonfinite_rows(1), 0x2u);
  Sq8Query prepared;
  q.PrepareQuery(std::vector<float>{1.0f, 2.0f, 3.0f}, &prepared);
  int32_t scores[QuantizedItemFactors::kBlockRows];
  EXPECT_EQ(q.ScanBlock(1, prepared, std::numeric_limits<int32_t>::max(),
                        scores),
            0x2u);
  EXPECT_EQ(q.ScanBlock(0, prepared, std::numeric_limits<int32_t>::max(),
                        scores),
            0u);
}

TEST(QuantizeLayout, ScoreFloorOnlyRejectsStrictlyWorseScores) {
  // Every integer score below the floor must expand to strictly less
  // than the pool's worst (Push would reject it), while a score at the
  // floor may still tie or beat it. Checked on both kernels, around
  // worsts drawn from the real expansion and from between two of its
  // values.
  for (const ScoreKernel kernel :
       {ScoreKernel::kDot, ScoreKernel::kNegSquaredL2}) {
    const ItemFactors factors = RandomFactors(kernel, 64, 24, 9);
    const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
    Rng rng(10);
    std::vector<float> query(24);
    Sq8Query prepared;
    for (int trial = 0; trial < 20; ++trial) {
      for (float& v : query) v = static_cast<float>(rng.Normal());
      q.PrepareQuery(query, &prepared);
      for (const int32_t s : ScanScores(q, prepared)) {
        const float at = q.ApproxScore(prepared, s);
        for (const float worst :
             {at, std::nextafter(at, -kInf), std::nextafter(at, kInf)}) {
          const int32_t floor = q.ScoreFloor(prepared, worst);
          ASSERT_GT(floor, std::numeric_limits<int32_t>::min());
          for (int32_t below = floor - 64; below < floor; ++below) {
            ASSERT_LT(q.ApproxScore(prepared, below), worst)
                << "score " << below << " floor " << floor;
          }
          // And the floor is tight enough to matter: it sits within a
          // few integers of the first score that reaches the worst.
          EXPECT_GE(q.ApproxScore(prepared, floor + 64), worst)
              << "floor " << floor;
        }
      }
    }
    // Non-finite worsts reject nothing.
    for (const float worst : {kNan, kInf, -kInf}) {
      EXPECT_EQ(q.ScoreFloor(prepared, worst),
                std::numeric_limits<int32_t>::min());
    }
  }
}

}  // namespace
}  // namespace kgrec
