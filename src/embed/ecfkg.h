#ifndef KGREC_EMBED_ECFKG_H_
#define KGREC_EMBED_ECFKG_H_

#include <memory>
#include <string>

#include "embed/cfkg.h"
#include "path/path_finder.h"

namespace kgrec {

/// ECFKG (Ai et al., Algorithms 2018): "Learning heterogeneous knowledge
/// base embeddings for explainable recommendation". The recommender is
/// the CFKG translation model over the user-item KG; its contribution is
/// *explainability*: a recommendation is explained by the KG path whose
/// every edge is most plausible under the learned embeddings (the
/// soft-matching explanation scheme of the paper).
class EcfkgRecommender : public CfkgRecommender {
 public:
  explicit EcfkgRecommender(CfkgConfig config = {})
      : CfkgRecommender(config) {}

  std::string name() const override { return "ECFKG"; }
  void Fit(const RecContext& context) override;

  /// The most KGE-plausible path from the user to the item, rendered as
  /// text, with its average edge plausibility; "" when no path exists.
  std::string Explain(int32_t user, int32_t item) const;

 protected:
  /// CFKG state plus a rebuilt path finder (pure function of the data).
  Status PrepareLoad(const RecContext& context) override;

 private:
  std::unique_ptr<TemplatePathFinder> finder_;
};

}  // namespace kgrec

#endif  // KGREC_EMBED_ECFKG_H_
