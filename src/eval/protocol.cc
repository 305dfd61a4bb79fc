#include "eval/protocol.h"

#include <algorithm>
#include <unordered_set>

#include "core/check.h"
#include "core/thread_pool.h"
#include "eval/metrics.h"
#include "math/rng.h"
#include "math/topk.h"

namespace kgrec {
namespace {

// Distinct stream families so that EvaluateCtr and EvaluateTopK called
// with the same root seed do not replay each other's negatives.
constexpr uint64_t kCtrStreamSalt = 0x43545220535452ULL;   // "CTR STR"
constexpr uint64_t kTopKStreamSalt = 0x544f504b53545230ULL;  // "TOPKSTR0"

/// Per-user accumulator slot of the top-K protocol. Slots are written by
/// exactly one ParallelFor chunk and reduced serially afterwards, so the
/// reduction order (and therefore the floating-point result) is the same
/// for every thread count.
struct UserTopK {
  double precision = 0.0;
  double recall = 0.0;
  double hit_rate = 0.0;
  double ndcg = 0.0;
  double mrr = 0.0;
  bool counted = false;
};

/// Draws the CTR negative for one test interaction from its RNG stream.
/// Consumes the stream exactly like the historical sampler (one draw plus
/// up to 50 rejection redraws against the test set), then — instead of
/// silently accepting a test positive as a "negative", which inflates AUC
/// on dense worlds — falls back to a deterministic exhaustive scan over
/// the item catalog. Returns -1 when the user has interacted with every
/// item (train + test), in which case the pair must be skipped.
int32_t SampleCtrNegative(const NegativeSampler& sampler,
                          const InteractionDataset& train,
                          const InteractionDataset& test, int32_t user,
                          Rng& stream) {
  int32_t neg = sampler.Sample(user, stream);
  for (int attempt = 0; attempt < 50 && test.Contains(user, neg); ++attempt) {
    neg = sampler.Sample(user, stream);
  }
  if (!test.Contains(user, neg)) return neg;
  // Rejection exhausted: scan every item once, starting after the last
  // rejected draw so the fallback stays a pure function of the stream.
  const int32_t num_items = train.num_items();
  for (int32_t step = 1; step <= num_items; ++step) {
    const int32_t candidate = (neg + step) % num_items;
    if (!train.Contains(user, candidate) && !test.Contains(user, candidate)) {
      return candidate;
    }
  }
  return -1;
}

}  // namespace

CtrMetrics EvaluateCtr(const Recommender& model,
                       const InteractionDataset& train,
                       const InteractionDataset& test,
                       const EvalOptions& options) {
  // Negatives must avoid both train and test positives: sample against
  // the union via rejection on both sets.
  NegativeSampler sampler(train);
  const std::vector<Interaction>& pairs = test.interactions();
  const Rng base(options.seed);
  // Group the test interactions by user so every user's positives and
  // negatives go through one ScoreItems() call: models with a batched
  // override pay the user-side precompute once per user instead of once
  // per Score(). Slots stay indexed by interaction, so the scores land in
  // the same positions as the historical per-pair loop.
  const size_t num_users = static_cast<size_t>(test.num_users());
  std::vector<std::vector<size_t>> by_user(num_users);
  for (size_t i = 0; i < pairs.size(); ++i) {
    by_user[pairs[i].user].push_back(i);
  }
  std::vector<float> scores(2 * pairs.size());
  std::vector<char> valid(pairs.size(), 0);
  const Status status = ParallelFor(
      num_users, options.num_threads,
      [&](size_t begin, size_t end) -> Status {
        std::vector<int32_t> candidates;
        std::vector<size_t> kept;
        for (size_t uu = begin; uu < end; ++uu) {
          const std::vector<size_t>& user_pairs = by_user[uu];
          if (user_pairs.empty()) continue;
          candidates.clear();
          kept.clear();
          for (size_t i : user_pairs) {
            const Interaction& x = pairs[i];
            // One counter-based stream per test pair: negative i is a
            // pure function of (seed, i), never of thread scheduling or
            // of the by-user grouping.
            Rng stream = base.Fork(kCtrStreamSalt ^ static_cast<uint64_t>(i));
            const int32_t neg =
                SampleCtrNegative(sampler, train, test, x.user, stream);
            if (neg < 0) continue;  // user exhausted the catalog
            candidates.push_back(x.item);
            candidates.push_back(neg);
            kept.push_back(i);
          }
          if (kept.empty()) continue;
          const std::vector<float> user_scores =
              model.ScoreItems(static_cast<int32_t>(uu), candidates);
          for (size_t k = 0; k < kept.size(); ++k) {
            const size_t i = kept[k];
            scores[2 * i] = user_scores[2 * k];
            scores[2 * i + 1] = user_scores[2 * k + 1];
            valid[i] = 1;
          }
        }
        return Status::OK();
      });
  KGREC_CHECK(status.ok());
  // Serial compaction in interaction order: when nothing is skipped this
  // reproduces the historical (pos, neg, pos, neg, ...) layout exactly,
  // keeping the metric reduction bitwise stable.
  std::vector<float> kept_scores;
  std::vector<int> kept_labels;
  kept_scores.reserve(2 * pairs.size());
  kept_labels.reserve(2 * pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!valid[i]) continue;
    kept_scores.push_back(scores[2 * i]);
    kept_labels.push_back(1);
    kept_scores.push_back(scores[2 * i + 1]);
    kept_labels.push_back(0);
  }
  CtrMetrics out;
  out.num_pairs = kept_scores.size() / 2;
  if (kept_scores.empty()) return out;
  out.auc = Auc(kept_scores, kept_labels);
  out.accuracy = Accuracy(kept_scores, kept_labels);
  out.f1 = F1Score(kept_scores, kept_labels);
  return out;
}

TopKMetrics EvaluateTopK(const Recommender& model,
                         const InteractionDataset& train,
                         const InteractionDataset& test,
                         const EvalOptions& options) {
  NegativeSampler sampler(train);
  const size_t num_users = static_cast<size_t>(test.num_users());
  const Rng base(options.seed);
  std::vector<UserTopK> per_user(num_users);
  const Status status = ParallelFor(
      num_users, options.num_threads,
      [&](size_t begin, size_t end) -> Status {
        for (size_t uu = begin; uu < end; ++uu) {
          const int32_t u = static_cast<int32_t>(uu);
          const auto& positives = test.UserItems(u);
          if (positives.empty()) continue;
          // The user's negatives come from Fork(user_id): the same stream
          // regardless of which thread evaluates the user.
          Rng stream = base.Fork(kTopKStreamSalt ^ static_cast<uint64_t>(uu));
          std::unordered_set<int32_t> relevant(positives.begin(),
                                               positives.end());
          // Candidate pool: test positives + sampled negatives not in
          // train/test for this user.
          std::vector<int32_t> candidates(positives.begin(), positives.end());
          std::unordered_set<int32_t> in_pool(relevant.begin(),
                                              relevant.end());
          size_t guard = 0;
          while (candidates.size() <
                     positives.size() + options.num_negatives &&
                 guard++ < options.num_negatives * 20) {
            const int32_t neg = sampler.Sample(u, stream);
            if (test.Contains(u, neg)) continue;
            if (!in_pool.insert(neg).second) continue;
            candidates.push_back(neg);
          }
          const std::vector<float> scores = model.ScoreItems(u, candidates);
          std::vector<int32_t> order = TopKIndices(scores, candidates.size());
          std::vector<int32_t> ranked(order.size());
          for (size_t i = 0; i < order.size(); ++i) {
            ranked[i] = candidates[order[i]];
          }
          UserTopK& slot = per_user[uu];
          slot.precision = PrecisionAtK(ranked, relevant, options.k);
          slot.recall = RecallAtK(ranked, relevant, options.k);
          slot.hit_rate = HitRateAtK(ranked, relevant, options.k);
          slot.ndcg = NdcgAtK(ranked, relevant, options.k);
          slot.mrr = ReciprocalRank(ranked, relevant);
          slot.counted = true;
        }
        return Status::OK();
      });
  KGREC_CHECK(status.ok());
  // Serial reduction in user order: the summation order is identical for
  // every thread count, keeping the averages bitwise stable.
  TopKMetrics out;
  for (const UserTopK& slot : per_user) {
    if (!slot.counted) continue;
    out.precision += slot.precision;
    out.recall += slot.recall;
    out.hit_rate += slot.hit_rate;
    out.ndcg += slot.ndcg;
    out.mrr += slot.mrr;
    ++out.num_users;
  }
  if (out.num_users > 0) {
    out.precision /= out.num_users;
    out.recall /= out.num_users;
    out.hit_rate /= out.num_users;
    out.ndcg /= out.num_users;
    out.mrr /= out.num_users;
  }
  return out;
}

}  // namespace kgrec
