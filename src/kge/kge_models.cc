#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "kge/kge_model.h"
#include "math/kernels.h"
#include "nn/init.h"

namespace kgrec {

void KgeModel::NormalizeRows(nn::Tensor& table) {
  const size_t rows = table.rows();
  const size_t cols = table.cols();
  for (size_t r = 0; r < rows; ++r) {
    float* row = table.data() + r * cols;
    float norm = 0.0f;
    for (size_t c = 0; c < cols; ++c) norm += row[c] * row[c];
    norm = std::sqrt(norm);
    if (norm > 1.0f) {
      for (size_t c = 0; c < cols; ++c) row[c] /= norm;
    }
  }
}

namespace {

/// TransE (Bordes et al.): g = -||h + r - t||^2.
class TransE : public KgeModel {
 public:
  TransE(size_t num_entities, size_t num_relations, size_t dim, Rng& rng)
      : KgeModel(dim),
        entities_(nn::XavierUniform(num_entities, dim, rng)),
        relations_(nn::XavierUniform(num_relations, dim, rng)) {}

  std::string name() const override { return "TransE"; }

  nn::Tensor ScoreBatch(const std::vector<int32_t>& heads,
                        const std::vector<int32_t>& relations,
                        const std::vector<int32_t>& tails) const override {
    nn::Tensor h = nn::Gather(entities_, heads);
    nn::Tensor r = nn::Gather(relations_, relations);
    nn::Tensor t = nn::Gather(entities_, tails);
    return nn::Neg(nn::SumRows(nn::Square(nn::Sub(nn::Add(h, r), t))));
  }

  std::vector<nn::Tensor> Params() const override {
    return {entities_, relations_};
  }
  const nn::Tensor& entity_embeddings() const override { return entities_; }
  const nn::Tensor& relation_embeddings() const override {
    return relations_;
  }
  void PostEpoch() override { NormalizeRows(entities_); }

  retrieval::ScoreKernel retrieval_kernel() const override {
    return retrieval::ScoreKernel::kNegSquaredL2;
  }
  void FillHeadQuery(int32_t head, int32_t relation,
                     float* out) const override {
    const float* h = entities_.data() + head * dim_;
    const float* r = relations_.data() + relation * dim_;
    for (size_t c = 0; c < dim_; ++c) out[c] = h[c] + r[c];
  }
  void FillTailFactor(int32_t tail, int32_t /*relation*/,
                      float* out) const override {
    const float* t = entities_.data() + tail * dim_;
    for (size_t c = 0; c < dim_; ++c) out[c] = t[c];
  }

 private:
  nn::Tensor entities_;
  nn::Tensor relations_;
};

/// TransH (Wang et al.): entities are projected onto the relation's
/// hyperplane (normal w_r) before translation.
class TransH : public KgeModel {
 public:
  TransH(size_t num_entities, size_t num_relations, size_t dim, Rng& rng)
      : KgeModel(dim),
        entities_(nn::XavierUniform(num_entities, dim, rng)),
        relations_(nn::XavierUniform(num_relations, dim, rng)),
        normals_(nn::XavierUniform(num_relations, dim, rng)) {}

  std::string name() const override { return "TransH"; }

  nn::Tensor ScoreBatch(const std::vector<int32_t>& heads,
                        const std::vector<int32_t>& relations,
                        const std::vector<int32_t>& tails) const override {
    nn::Tensor h = nn::Gather(entities_, heads);
    nn::Tensor r = nn::Gather(relations_, relations);
    nn::Tensor w = nn::Gather(normals_, relations);
    nn::Tensor t = nn::Gather(entities_, tails);
    nn::Tensor h_perp = nn::Sub(h, nn::Mul(w, nn::RowwiseDot(w, h)));
    nn::Tensor t_perp = nn::Sub(t, nn::Mul(w, nn::RowwiseDot(w, t)));
    return nn::Neg(
        nn::SumRows(nn::Square(nn::Sub(nn::Add(h_perp, r), t_perp))));
  }

  std::vector<nn::Tensor> Params() const override {
    return {entities_, relations_, normals_};
  }
  const nn::Tensor& entity_embeddings() const override { return entities_; }
  const nn::Tensor& relation_embeddings() const override {
    return relations_;
  }
  void PostEpoch() override {
    NormalizeRows(entities_);
    NormalizeRows(normals_);
  }

  retrieval::ScoreKernel retrieval_kernel() const override {
    return retrieval::ScoreKernel::kNegSquaredL2;
  }
  void FillHeadQuery(int32_t head, int32_t relation,
                     float* out) const override {
    const float* h = entities_.data() + head * dim_;
    const float* r = relations_.data() + relation * dim_;
    const float* w = normals_.data() + relation * dim_;
    const float wh = kernels::Dot(w, h, dim_);
    for (size_t c = 0; c < dim_; ++c) out[c] = (h[c] - w[c] * wh) + r[c];
  }
  void FillTailFactor(int32_t tail, int32_t relation,
                      float* out) const override {
    const float* t = entities_.data() + tail * dim_;
    const float* w = normals_.data() + relation * dim_;
    const float wt = kernels::Dot(w, t, dim_);
    for (size_t c = 0; c < dim_; ++c) out[c] = t[c] - w[c] * wt;
  }

 private:
  nn::Tensor entities_;
  nn::Tensor relations_;
  nn::Tensor normals_;
};

/// TransR (Lin et al.): a per-relation d x d projection matrix maps
/// entities into the relation space (used by CKE, KGAT, AKUPM).
class TransR : public KgeModel {
 public:
  TransR(size_t num_entities, size_t num_relations, size_t dim, Rng& rng)
      : KgeModel(dim),
        entities_(nn::XavierUniform(num_entities, dim, rng)),
        relations_(nn::XavierUniform(num_relations, dim, rng)),
        projections_(nn::XavierUniform(num_relations, dim * dim, rng)) {
    // Bias the projections toward identity so training starts near TransE.
    for (size_t r = 0; r < num_relations; ++r) {
      for (size_t i = 0; i < dim; ++i) {
        projections_.data()[r * dim * dim + i * dim + i] += 1.0f;
      }
    }
  }

  std::string name() const override { return "TransR"; }

  nn::Tensor ScoreBatch(const std::vector<int32_t>& heads,
                        const std::vector<int32_t>& relations,
                        const std::vector<int32_t>& tails) const override {
    nn::Tensor h = nn::Gather(entities_, heads);
    nn::Tensor r = nn::Gather(relations_, relations);
    nn::Tensor m = nn::Gather(projections_, relations);
    nn::Tensor t = nn::Gather(entities_, tails);
    nn::Tensor h_r = nn::RowwiseVecMat(h, m);
    nn::Tensor t_r = nn::RowwiseVecMat(t, m);
    return nn::Neg(nn::SumRows(nn::Square(nn::Sub(nn::Add(h_r, r), t_r))));
  }

  std::vector<nn::Tensor> Params() const override {
    return {entities_, relations_, projections_};
  }
  const nn::Tensor& entity_embeddings() const override { return entities_; }
  const nn::Tensor& relation_embeddings() const override {
    return relations_;
  }
  void PostEpoch() override { NormalizeRows(entities_); }

  retrieval::ScoreKernel retrieval_kernel() const override {
    return retrieval::ScoreKernel::kNegSquaredL2;
  }
  void FillHeadQuery(int32_t head, int32_t relation,
                     float* out) const override {
    const float* r = relations_.data() + relation * dim_;
    Project(entities_.data() + head * dim_, relation, out);
    for (size_t c = 0; c < dim_; ++c) out[c] += r[c];
  }
  void FillTailFactor(int32_t tail, int32_t relation,
                      float* out) const override {
    Project(entities_.data() + tail * dim_, relation, out);
  }

 private:
  /// out = e * M_r (vector-matrix, ascending-i accumulation).
  void Project(const float* e, int32_t relation, float* out) const {
    const float* m = projections_.data() + relation * dim_ * dim_;
    for (size_t j = 0; j < dim_; ++j) out[j] = 0.0f;
    for (size_t i = 0; i < dim_; ++i) {
      kernels::Axpy(e[i], m + i * dim_, out, dim_);
    }
  }

  nn::Tensor entities_;
  nn::Tensor relations_;
  nn::Tensor projections_;
};

/// TransD (Ji et al.): dynamic per-pair mapping h_proj = h + (h_p . h) r_p
/// built from entity and relation projection vectors (used by DKN).
class TransD : public KgeModel {
 public:
  TransD(size_t num_entities, size_t num_relations, size_t dim, Rng& rng)
      : KgeModel(dim),
        entities_(nn::XavierUniform(num_entities, dim, rng)),
        relations_(nn::XavierUniform(num_relations, dim, rng)),
        entity_proj_(nn::XavierUniform(num_entities, dim, rng)),
        relation_proj_(nn::XavierUniform(num_relations, dim, rng)) {}

  std::string name() const override { return "TransD"; }

  nn::Tensor ScoreBatch(const std::vector<int32_t>& heads,
                        const std::vector<int32_t>& relations,
                        const std::vector<int32_t>& tails) const override {
    nn::Tensor h = nn::Gather(entities_, heads);
    nn::Tensor hp = nn::Gather(entity_proj_, heads);
    nn::Tensor r = nn::Gather(relations_, relations);
    nn::Tensor rp = nn::Gather(relation_proj_, relations);
    nn::Tensor t = nn::Gather(entities_, tails);
    nn::Tensor tp = nn::Gather(entity_proj_, tails);
    nn::Tensor h_proj = nn::Add(h, nn::Mul(rp, nn::RowwiseDot(hp, h)));
    nn::Tensor t_proj = nn::Add(t, nn::Mul(rp, nn::RowwiseDot(tp, t)));
    return nn::Neg(
        nn::SumRows(nn::Square(nn::Sub(nn::Add(h_proj, r), t_proj))));
  }

  std::vector<nn::Tensor> Params() const override {
    return {entities_, relations_, entity_proj_, relation_proj_};
  }
  const nn::Tensor& entity_embeddings() const override { return entities_; }
  const nn::Tensor& relation_embeddings() const override {
    return relations_;
  }
  void PostEpoch() override { NormalizeRows(entities_); }

  retrieval::ScoreKernel retrieval_kernel() const override {
    return retrieval::ScoreKernel::kNegSquaredL2;
  }
  void FillHeadQuery(int32_t head, int32_t relation,
                     float* out) const override {
    const float* h = entities_.data() + head * dim_;
    const float* hp = entity_proj_.data() + head * dim_;
    const float* r = relations_.data() + relation * dim_;
    const float* rp = relation_proj_.data() + relation * dim_;
    const float hph = kernels::Dot(hp, h, dim_);
    for (size_t c = 0; c < dim_; ++c) {
      out[c] = (h[c] + rp[c] * hph) + r[c];
    }
  }
  void FillTailFactor(int32_t tail, int32_t relation,
                      float* out) const override {
    const float* t = entities_.data() + tail * dim_;
    const float* tp = entity_proj_.data() + tail * dim_;
    const float* rp = relation_proj_.data() + relation * dim_;
    const float tpt = kernels::Dot(tp, t, dim_);
    for (size_t c = 0; c < dim_; ++c) out[c] = t[c] + rp[c] * tpt;
  }

 private:
  nn::Tensor entities_;
  nn::Tensor relations_;
  nn::Tensor entity_proj_;
  nn::Tensor relation_proj_;
};

/// DistMult (Yang et al.): semantic matching g = sum(h * r * t), used by
/// MKR and RCF in the survey.
class DistMult : public KgeModel {
 public:
  DistMult(size_t num_entities, size_t num_relations, size_t dim, Rng& rng)
      : KgeModel(dim),
        entities_(nn::XavierUniform(num_entities, dim, rng)),
        relations_(nn::XavierUniform(num_relations, dim, rng)) {}

  std::string name() const override { return "DistMult"; }

  nn::Tensor ScoreBatch(const std::vector<int32_t>& heads,
                        const std::vector<int32_t>& relations,
                        const std::vector<int32_t>& tails) const override {
    nn::Tensor h = nn::Gather(entities_, heads);
    nn::Tensor r = nn::Gather(relations_, relations);
    nn::Tensor t = nn::Gather(entities_, tails);
    return nn::SumRows(nn::Mul(nn::Mul(h, r), t));
  }

  std::vector<nn::Tensor> Params() const override {
    return {entities_, relations_};
  }
  const nn::Tensor& entity_embeddings() const override { return entities_; }
  const nn::Tensor& relation_embeddings() const override {
    return relations_;
  }

  retrieval::ScoreKernel retrieval_kernel() const override {
    return retrieval::ScoreKernel::kDot;
  }
  void FillHeadQuery(int32_t head, int32_t relation,
                     float* out) const override {
    const float* h = entities_.data() + head * dim_;
    const float* r = relations_.data() + relation * dim_;
    for (size_t c = 0; c < dim_; ++c) out[c] = h[c] * r[c];
  }
  void FillTailFactor(int32_t tail, int32_t /*relation*/,
                      float* out) const override {
    const float* t = entities_.data() + tail * dim_;
    for (size_t c = 0; c < dim_; ++c) out[c] = t[c];
  }

 private:
  nn::Tensor entities_;
  nn::Tensor relations_;
};

}  // namespace

std::unique_ptr<KgeModel> MakeKgeModel(const std::string& name,
                                       size_t num_entities,
                                       size_t num_relations, size_t dim,
                                       Rng& rng) {
  if (name == "transe") {
    return std::make_unique<TransE>(num_entities, num_relations, dim, rng);
  }
  if (name == "transh") {
    return std::make_unique<TransH>(num_entities, num_relations, dim, rng);
  }
  if (name == "transr") {
    return std::make_unique<TransR>(num_entities, num_relations, dim, rng);
  }
  if (name == "transd") {
    return std::make_unique<TransD>(num_entities, num_relations, dim, rng);
  }
  if (name == "distmult") {
    return std::make_unique<DistMult>(num_entities, num_relations, dim, rng);
  }
  KGREC_CHECK(false);  // unknown KGE backend
  return nullptr;
}

std::vector<std::string> KgeModelNames() {
  return {"transe", "transh", "transr", "transd", "distmult"};
}

}  // namespace kgrec
