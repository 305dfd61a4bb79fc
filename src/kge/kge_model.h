#ifndef KGREC_KGE_KGE_MODEL_H_
#define KGREC_KGE_KGE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/knowledge_graph.h"
#include "math/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec {

/// A knowledge-graph-embedding model (survey Section 4.1): entities and
/// relations are embedded in R^d, and a plausibility score g(e_h, r, e_t)
/// is defined so that observed triples score higher than corrupted ones.
///
/// Two families are implemented, as the survey classifies them:
/// translation-distance models (TransE/TransH/TransR/TransD) whose score
/// is the negative translated distance, and semantic matching models
/// (DistMult) whose score is a trilinear product. Scores are always
/// "higher = more plausible".
class KgeModel {
 public:
  virtual ~KgeModel() = default;

  virtual std::string name() const = 0;

  /// Batched plausibility scores -> [B, 1].
  virtual nn::Tensor ScoreBatch(const std::vector<int32_t>& heads,
                                const std::vector<int32_t>& relations,
                                const std::vector<int32_t>& tails) const = 0;

  /// All trainable parameters.
  virtual std::vector<nn::Tensor> Params() const = 0;

  /// Entity embedding table [num_entities, dim].
  virtual const nn::Tensor& entity_embeddings() const = 0;

  /// Relation embedding table [num_relations, dim].
  virtual const nn::Tensor& relation_embeddings() const = 0;

  /// Hook after each training epoch (e.g. TransE-family entity-norm
  /// projection). Default does nothing.
  virtual void PostEpoch() {}

  /// Fixed-relation factorization for the retrieval layer (DESIGN §10).
  /// For a *fixed* relation r, every backend's plausibility collapses to
  /// a kernel over two d-vectors:
  ///
  ///   g(h, r, t) ==
  ///     KernelScore(retrieval_kernel(), HeadQuery(h, r), TailFactor(t, r))
  ///
  /// because the relation-dependent projections (TransH's hyperplane,
  /// TransR's matrix, TransD's dynamic mapping, DistMult's elementwise
  /// product) apply to head and tail *independently* once r is pinned.
  /// FillHeadQuery writes the projected-and-translated head vector,
  /// FillTailFactor the projected tail vector, each of dim() floats.
  /// This is what lets CFKG-style rankers materialize an item matrix
  /// once and serve top-K through an index; CFKG's Score() is *defined*
  /// through this path, so index scans are bitwise exact.
  virtual retrieval::ScoreKernel retrieval_kernel() const = 0;
  virtual void FillHeadQuery(int32_t head, int32_t relation,
                             float* out) const = 0;
  virtual void FillTailFactor(int32_t tail, int32_t relation,
                              float* out) const = 0;

  size_t dim() const { return dim_; }

 protected:
  explicit KgeModel(size_t dim) : dim_(dim) {}

  /// Normalizes every row of the tensor to (at most) unit L2 norm.
  static void NormalizeRows(nn::Tensor& table);

  size_t dim_;
};

/// Creates a model by name: "transe", "transh", "transr", "transd",
/// "distmult".
std::unique_ptr<KgeModel> MakeKgeModel(const std::string& name,
                                       size_t num_entities,
                                       size_t num_relations, size_t dim,
                                       Rng& rng);

/// The list of available backend names.
std::vector<std::string> KgeModelNames();

}  // namespace kgrec

#endif  // KGREC_KGE_KGE_MODEL_H_
