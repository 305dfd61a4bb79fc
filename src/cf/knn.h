#ifndef KGREC_CF_KNN_H_
#define KGREC_CF_KNN_H_

#include <vector>

#include "core/recommender.h"

namespace kgrec {

/// Memory-based item-item collaborative filtering (survey Section 2.2):
/// item similarity is the cosine of interaction columns; a user's score
/// for an item is the summed similarity to the user's history, truncated
/// to each item's top-k neighbors.
class ItemKnnRecommender : public Recommender {
 public:
  explicit ItemKnnRecommender(size_t num_neighbors = 20)
      : num_neighbors_(num_neighbors) {}

  std::string name() const override { return "ItemKNN"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  /// The similarity lists are deterministic in the training set, so the
  /// checkpoint stores nothing and Load recomputes them.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  size_t num_neighbors_;
  const InteractionDataset* train_ = nullptr;
  /// similarity_[i] holds (other item, cosine) of item i's top neighbors.
  std::vector<std::vector<std::pair<int32_t, float>>> similarity_;
};

/// Memory-based user-user collaborative filtering: score(u, i) is the
/// similarity-weighted count of similar users who interacted with i.
class UserKnnRecommender : public Recommender {
 public:
  explicit UserKnnRecommender(size_t num_neighbors = 20)
      : num_neighbors_(num_neighbors) {}

  std::string name() const override { return "UserKNN"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  size_t num_neighbors_;
  const InteractionDataset* train_ = nullptr;
  std::vector<std::vector<std::pair<int32_t, float>>> similarity_;
};

}  // namespace kgrec

#endif  // KGREC_CF_KNN_H_
