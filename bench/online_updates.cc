// Online-updates harness (DESIGN.md §13): the freshness-vs-staleness
// frontier. A synthetic world is streamed as timestamped events; models
// are fitted on the base snapshot and then compared three ways at a
// temporal cutoff:
//
//   stale    fit at t = 0, only *growth* events applied (tables sized to
//            the post-cut world, nothing folded) — what serving looks
//            like when nobody retrains;
//   updated  fit at t = 0, Recommender::Update() folds every checkpoint
//            batch — the online path this harness exists to price;
//   refit    Fit() from scratch on the world at the cutoff — the
//            freshness ceiling, at full training cost.
//
// Evaluation is a leave-out over the *streamed* users (the population
// the stale model has never seen): for every user that arrives before
// the cutoff with enough history, the tail of their pre-cut
// interactions is withheld from the feed — no comparator ever trains on
// it — and becomes their test positives. The metric is CTR AUC: it is
// rank-based with tie-group averaging, so a model that scores an
// unknown user constantly earns an honest 0.5 rather than gaming a
// top-K candidate order. The gap refit - stale is the staleness drift
// and (updated - stale) / drift is how much of it the online path
// recovers. The full run gates every updatable model on its own
// (<model>/recovers: recovery >= 0.5 at <= 10% of refit cost), and
// emits BENCH_online.json.
//
//   ./online_updates          full frontier (every updatable model)
//   ./online_updates --smoke  bitwise gates only, for CI:
//                             - replayed prefixes == from-scratch builds
//                               (StreamEquals) at several timestamps;
//                             - fit -> update and save -> load -> update
//                               serve bitwise-identical scores for every
//                               updatable model;
//                             - updated-model metrics are bitwise across
//                               eval thread counts;
//                             - a non-updatable model refuses with
//                               kUnimplemented.
//
// Exits non-zero if any gate fails.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/event_stream.h"
#include "data/synthetic.h"
#include "eval/protocol.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

kgrec::EventStreamConfig MakeStreamConfig(bool smoke) {
  kgrec::WorldConfig world;
  world.name = "online";
  world.item_relations = {
      {.name = "genre", .num_values = 8, .links_per_item = 2},
      {.name = "studio", .num_values = 6, .links_per_item = 1},
  };
  if (smoke) {
    world.num_users = 30;
    world.num_items = 24;
    world.avg_interactions_per_user = 6.0;
  } else {
    world.num_users = 600;
    world.num_items = 300;
    world.avg_interactions_per_user = 16.0;
    world.item_relations.push_back(
        {.name = "era", .num_values = 5, .links_per_item = 1});
  }
  kgrec::EventStreamConfig config;
  config.world = world;
  config.base_user_fraction = smoke ? 0.7 : 0.6;
  config.held_out_values_per_relation = 2;
  config.stream_seed = 17;
  return config;
}

kgrec::RecContext MakeContext(const kgrec::InteractionDataset& train,
                              const kgrec::KnowledgeGraph& kg,
                              const kgrec::UserItemGraph& uig) {
  kgrec::RecContext ctx;
  ctx.train = &train;
  ctx.item_kg = &kg;
  ctx.user_item_graph = &uig;
  ctx.seed = 17;
  return ctx;
}

/// The growth-only view of a batch: kNewUser / kNewEntity events keep
/// their timestamps, everything foldable is dropped. Applying this keeps
/// a stale model's tables sized to the post-batch world without teaching
/// it anything — the "nobody retrains" comparator.
std::vector<kgrec::Event> GrowthOnly(const kgrec::EventBatch& batch) {
  std::vector<kgrec::Event> growth;
  for (const kgrec::Event& e : batch.events) {
    if (e.kind == kgrec::EventKind::kNewUser ||
        e.kind == kgrec::EventKind::kNewEntity) {
      growth.push_back(e);
    }
  }
  return growth;
}

/// Bitwise score comparison over a spread of users (old and new) and a
/// duplicate-bearing candidate list.
bool ScoresBitwise(const kgrec::Recommender& a, const kgrec::Recommender& b,
                   int32_t num_users, int32_t num_items, std::string* why) {
  std::vector<int32_t> candidates;
  for (int32_t i = 0; i < num_items; i += 3) candidates.push_back(i);
  candidates.push_back(candidates.front());
  for (int32_t user = 0; user < num_users; user += num_users / 7 + 1) {
    const std::vector<float> sa = a.ScoreItems(user, candidates);
    const std::vector<float> sb = b.ScoreItems(user, candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (std::memcmp(&sa[i], &sb[i], sizeof(float)) != 0) {
        *why = "user " + std::to_string(user) + " item " +
               std::to_string(candidates[i]);
        return false;
      }
    }
  }
  return true;
}

bool MetricsBitwise(const kgrec::TopKMetrics& a,
                    const kgrec::TopKMetrics& b) {
  return std::memcmp(&a.precision, &b.precision, sizeof(double)) == 0 &&
         std::memcmp(&a.recall, &b.recall, sizeof(double)) == 0 &&
         std::memcmp(&a.hit_rate, &b.hit_rate, sizeof(double)) == 0 &&
         std::memcmp(&a.ndcg, &b.ndcg, sizeof(double)) == 0 &&
         std::memcmp(&a.mrr, &b.mrr, sizeof(double)) == 0 &&
         a.num_users == b.num_users;
}

/// --smoke: the determinism gates (see file header).
int RunSmoke() {
  const kgrec::EventStream stream(MakeStreamConfig(/*smoke=*/true));
  const size_t n = stream.size();
  std::printf("== online updates (smoke: %zu events) ==\n\n", n);

  kgrec::bench::Report report("online", /*smoke=*/true);
  report.Metric("num_events", n);

  // Gate 1: a replayed prefix is the from-scratch world, at every probed
  // timestamp, applied incrementally batch by batch.
  {
    kgrec::InteractionDataset replayed = stream.BaseInteractions();
    kgrec::KnowledgeGraph replayed_kg = stream.BaseItemKg();
    size_t prev = 0;
    bool replay_ok = true;
    for (size_t t : {size_t{0}, n / 3, 2 * n / 3, n}) {
      stream.ApplyBatch(stream.Batch(prev, t), &replayed, &replayed_kg);
      prev = t;
      const kgrec::StreamSnapshot snap =
          stream.MaterializeAt(static_cast<int64_t>(t));
      std::string why;
      if (!kgrec::StreamEquals(replayed, replayed_kg, snap.interactions,
                               snap.item_kg, &why)) {
        std::printf("replay@%zu  FAIL: %s\n", t, why.c_str());
        replay_ok = false;
      } else {
        std::printf("replay@%-4zu bitwise\n", t);
      }
    }
    report.Gate("replay_equals_materialized", replay_ok);
  }

  // Base structures stay pristine (they are the restore context for
  // save -> load -> update); the live set absorbs the whole stream in
  // two batches.
  const kgrec::InteractionDataset base_train = stream.BaseInteractions();
  const kgrec::KnowledgeGraph base_kg = stream.BaseItemKg();
  const kgrec::UserItemGraph base_uig = stream.BaseUserItemGraph();
  const kgrec::RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);

  kgrec::InteractionDataset live_train = base_train;
  kgrec::KnowledgeGraph live_kg = base_kg;
  kgrec::UserItemGraph live_uig = base_uig;
  const kgrec::RecContext live_ctx = MakeContext(live_train, live_kg, live_uig);

  // Gate 2: per updatable model, fit -> update must serve bitwise the
  // same scores as fit -> save -> load -> update. The two halves of the
  // stream arrive as separate batches so batch-partition independence is
  // exercised too.
  const std::string ckpt =
      "/tmp/kgrec_online_" + std::to_string(static_cast<long>(getpid())) +
      ".kgrc";
  std::vector<std::unique_ptr<kgrec::Recommender>> updated_models;
  std::vector<std::unique_ptr<kgrec::Recommender>> restored_models;
  for (const std::string& name : kgrec::UpdatableMethodNames()) {
    std::unique_ptr<kgrec::Recommender> fitted = kgrec::MakeRecommender(name);
    fitted->Fit(base_ctx);
    kgrec::Status status = fitted->Save(ckpt);
    std::unique_ptr<kgrec::Recommender> restored;
    if (status.ok()) status = kgrec::LoadModel(base_ctx, ckpt, &restored);
    if (!status.ok()) {
      std::printf("%-14s FAIL: %s\n", name.c_str(), status.ToString().c_str());
      report.Gate(name + "/update_roundtrip_bitwise", false);
      continue;
    }
    updated_models.push_back(std::move(fitted));
    restored_models.push_back(std::move(restored));
  }
  std::remove(ckpt.c_str());
  for (const size_t t : {n / 2, n}) {
    const kgrec::EventBatch batch = stream.Batch(t == n / 2 ? 0 : n / 2, t);
    stream.ApplyBatch(batch, &live_train, &live_kg);
    stream.ApplyBatchToUserItemGraph(batch, &live_uig);
    for (size_t i = 0; i < updated_models.size(); ++i) {
      kgrec::Status status = updated_models[i]->Update(live_ctx, batch);
      if (status.ok()) status = restored_models[i]->Update(live_ctx, batch);
      if (!status.ok()) {
        std::printf("%-14s FAIL: update: %s\n",
                    updated_models[i]->name().c_str(),
                    status.ToString().c_str());
        report.Gate(updated_models[i]->name() + "/update_roundtrip_bitwise",
                    false);
      }
    }
  }
  for (size_t i = 0; i < updated_models.size(); ++i) {
    const std::string name = updated_models[i]->name();
    std::string why;
    const bool ok =
        ScoresBitwise(*updated_models[i], *restored_models[i],
                      stream.total_num_users(), stream.num_items(), &why);
    std::printf("%-14s %s%s\n", name.c_str(),
                ok ? "update bitwise across checkpoint roundtrip"
                   : "FAIL: update diverges after save/load at ",
                ok ? "" : why.c_str());
    report.Gate(name + "/update_roundtrip_bitwise", ok);
  }

  // Gate 3: metrics of an updated model are bitwise across eval thread
  // counts (the eval contract must survive the update path: grown tables,
  // refreshed ripple rows). Probe with the first updatable model.
  if (!updated_models.empty()) {
    kgrec::InteractionDataset probe_test(live_train.num_users(),
                                         live_train.num_items());
    const auto& events = stream.events();
    for (size_t i = 3 * n / 4; i < n; ++i) {
      if (events[i].kind == kgrec::EventKind::kNewInteraction) {
        probe_test.Add(events[i].user, events[i].item);
      }
    }
    bool threads_ok = true;
    kgrec::EvalOptions options;
    options.seed = kgrec::Rng(102).NextUint64();
    options.num_threads = 1;
    const kgrec::TopKMetrics serial =
        EvaluateTopK(*updated_models[0], live_train, probe_test, options);
    for (const size_t threads : {size_t{2}, size_t{8}}) {
      options.num_threads = threads;
      if (!MetricsBitwise(serial, EvaluateTopK(*updated_models[0], live_train,
                                               probe_test, options))) {
        std::printf("FAIL: metrics diverge at %zu eval threads\n", threads);
        threads_ok = false;
      }
    }
    if (threads_ok) std::printf("%-14s metrics bitwise at 1/2/8 eval threads\n",
                                updated_models[0]->name().c_str());
    report.Gate("eval_threads_bitwise", threads_ok);
  }

  // Gate 4: a model without an online path refuses with kUnimplemented.
  bool refusal_ok = false;
  for (const std::string& name : kgrec::ImplementedMethodNames()) {
    if (kgrec::SupportsUpdate(name)) continue;
    std::unique_ptr<kgrec::Recommender> model = kgrec::MakeRecommender(name);
    const kgrec::Status status =
        model->Update(live_ctx, stream.Batch(0, n));
    refusal_ok = status.code() == kgrec::StatusCode::kUnimplemented;
    std::printf("%-14s %s\n", name.c_str(),
                refusal_ok ? "refuses update (kUnimplemented)"
                           : "FAIL: wrong refusal status");
    break;
  }
  report.Gate("non_updatable_refuses", refusal_ok);
  return report.Finish();
}

struct FrontierRow {
  std::string model;
  double stale_auc = 0.0;
  double updated_auc = 0.0;
  double refit_auc = 0.0;
  double update_seconds = 0.0;
  double refit_seconds = 0.0;
  bool update_ok = true;
};

/// Full mode: the frontier (see file header).
int RunFull() {
  const kgrec::EventStream stream(MakeStreamConfig(/*smoke=*/false));
  const size_t n = stream.size();
  const size_t cut = 7 * n / 10;      // temporal cutoff: the "now"
  const size_t kCheckpoints = 4;      // batches streamed up to the cut
  const auto& events = stream.events();

  // The leave-out: for every streamed user arriving before the cut with
  // at least 4 pre-cut interactions, withhold the last quarter (>= 1)
  // from the feed as their test positives. Withheld events are simply
  // never applied or folded, so no comparator trains on them.
  std::vector<char> withheld(n, 0);
  {
    std::vector<std::vector<size_t>> per_user(
        static_cast<size_t>(stream.total_num_users()));
    for (size_t i = 0; i < cut; ++i) {
      if (events[i].kind == kgrec::EventKind::kNewInteraction &&
          events[i].user >= stream.base_num_users()) {
        per_user[events[i].user].push_back(i);
      }
    }
    for (const std::vector<size_t>& history : per_user) {
      if (history.size() < 4) continue;
      for (size_t k = history.size() - history.size() / 4;
           k < history.size(); ++k) {
        withheld[history[k]] = 1;
      }
    }
  }

  kgrec::InteractionDataset live_train = stream.BaseInteractions();
  kgrec::KnowledgeGraph live_kg = stream.BaseItemKg();
  kgrec::UserItemGraph live_uig = stream.BaseUserItemGraph();
  const kgrec::RecContext live_ctx = MakeContext(live_train, live_kg, live_uig);

  std::printf(
      "== online updates (full: %zu events, cut at %zu, %zu checkpoints) "
      "==\n\n",
      n, cut, kCheckpoints);

  // Phase 1: fit the "updated" models on the base snapshot; clone each
  // into its "stale" twin in memory (identical starting state, bitwise
  // the checkpoint roundtrip's by the CloneModel contract).
  const std::vector<std::string> names = kgrec::UpdatableMethodNames();
  std::vector<std::unique_ptr<kgrec::Recommender>> updated, stale;
  std::vector<FrontierRow> rows(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    rows[i].model = names[i];
    std::unique_ptr<kgrec::Recommender> model =
        kgrec::MakeRecommender(names[i]);
    model->Fit(live_ctx);
    std::unique_ptr<kgrec::Recommender> twin;
    const kgrec::Status status = kgrec::CloneModel(*model, live_ctx, &twin);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: clone failed: %s\n", names[i].c_str(),
                   status.ToString().c_str());
      rows[i].update_ok = false;
    }
    updated.push_back(std::move(model));
    stale.push_back(std::move(twin));
  }

  // Phase 2: stream the prefix in checkpoint batches, leave-out events
  // removed. The world mutates once per checkpoint; every model then
  // folds the same fed batch — full for "updated" (timed), growth-only
  // for "stale".
  size_t prev = 0;
  for (size_t c = 1; c <= kCheckpoints; ++c) {
    const size_t t = cut * c / kCheckpoints;
    std::vector<kgrec::Event> fed;
    for (size_t i = prev; i < t; ++i) {
      if (!withheld[i]) fed.push_back(events[i]);
    }
    prev = t;
    const kgrec::EventBatch batch{fed};
    stream.ApplyBatch(batch, &live_train, &live_kg);
    stream.ApplyBatchToUserItemGraph(batch, &live_uig);
    const std::vector<kgrec::Event> growth = GrowthOnly(batch);
    const kgrec::EventBatch growth_batch{growth};
    for (size_t i = 0; i < names.size(); ++i) {
      if (!rows[i].update_ok) continue;
      const auto t0 = Clock::now();
      kgrec::Status status = updated[i]->Update(live_ctx, batch);
      rows[i].update_seconds += Seconds(t0, Clock::now());
      if (status.ok()) status = stale[i]->Update(live_ctx, growth_batch);
      if (!status.ok()) {
        std::fprintf(stderr, "%s: update failed: %s\n", names[i].c_str(),
                     status.ToString().c_str());
        rows[i].update_ok = false;
      }
    }
  }

  // The withheld leave-out tail is the test set; every test user exists
  // in every comparator (they all arrived before the cut).
  kgrec::InteractionDataset test(live_train.num_users(),
                                 live_train.num_items());
  for (size_t i = 0; i < cut; ++i) {
    if (withheld[i]) test.Add(events[i].user, events[i].item);
  }

  // Phase 3: refit from scratch on the cut world (timed), then evaluate
  // all three comparators on the withheld tail.
  kgrec::EvalOptions options;
  options.seed = kgrec::Rng(101).NextUint64();
  options.num_threads = 4;  // metrics are thread-count invariant
  std::printf("%-14s %8s %8s %8s %9s %8s %8s %7s\n", "model", "stale",
              "updated", "refit", "recovery", "upd_s", "refit_s", "cost");
  kgrec::bench::PrintRule(78);
  kgrec::bench::Report report("online", /*smoke=*/false);
  for (size_t i = 0; i < names.size(); ++i) {
    FrontierRow& row = rows[i];
    report.Gate(names[i] + "/update_path_ok", row.update_ok);
    if (!row.update_ok) {
      std::printf("%-14s FAIL (update path)\n", names[i].c_str());
      continue;
    }
    std::unique_ptr<kgrec::Recommender> refit =
        kgrec::MakeRecommender(names[i]);
    const auto t0 = Clock::now();
    refit->Fit(live_ctx);
    row.refit_seconds = Seconds(t0, Clock::now());
    row.stale_auc = EvaluateCtr(*stale[i], live_train, test, options).auc;
    row.updated_auc = EvaluateCtr(*updated[i], live_train, test, options).auc;
    row.refit_auc = EvaluateCtr(*refit, live_train, test, options).auc;

    const double drift = row.refit_auc - row.stale_auc;
    const double gain = row.updated_auc - row.stale_auc;
    const double recovery = drift > 1e-12 ? gain / drift : 1.0;
    const double cost =
        row.refit_seconds > 0.0 ? row.update_seconds / row.refit_seconds : 0.0;
    // Negligible drift (< half an AUC point) means there was nothing to
    // recover; otherwise the online path must close >= half the gap.
    const bool recovered = drift < 0.005 || gain >= 0.5 * drift;
    const bool cheap = cost <= 0.10;
    report.Gate(names[i] + "/recovers", recovered && cheap);
    std::printf("%-14s %8.4f %8.4f %8.4f %8.0f%% %8.3f %8.3f %6.1f%%\n",
                names[i].c_str(), row.stale_auc, row.updated_auc,
                row.refit_auc, recovery * 100.0, row.update_seconds,
                row.refit_seconds, cost * 100.0);
    report.Metric(names[i] + "/stale_auc", row.stale_auc);
    report.Metric(names[i] + "/updated_auc", row.updated_auc);
    report.Metric(names[i] + "/refit_auc", row.refit_auc);
    report.Metric(names[i] + "/recovery", recovery);
    report.Timing(names[i] + "/update_seconds", row.update_seconds);
    report.Timing(names[i] + "/refit_seconds", row.refit_seconds);
    report.Timing(names[i] + "/cost_ratio", cost);
  }
  kgrec::bench::PrintRule(78);
  std::printf(
      "\nGate <model>/recovers: every updatable model must recover >= 50%%\n"
      "of the staleness drift (refit - stale AUC) at <= 10%% of refit cost.\n");
  report.Metric("num_events", n);
  report.Metric("cut", cut);
  report.Metric("checkpoints", kCheckpoints);
  report.Metric("test_interactions", test.num_interactions());
  return report.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  return smoke ? RunSmoke() : RunFull();
}
