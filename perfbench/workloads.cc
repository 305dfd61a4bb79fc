#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <numeric>

#include "cf/mf.h"
#include "core/mem_stats.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/event_stream.h"
#include "data/mega.h"
#include "data/presets.h"
#include "math/rng.h"
#include "report.h"
#include "retrieval/index.h"
#include "serve/router.h"
#include "serve/serve_handle.h"
#include "tracing.h"
#include "traffic.h"

namespace perfbench {
namespace {

using kgrec::RecContext;
using kgrec::Recommender;
using kgrec::Rng;
using kgrec::Status;
using kgrec::serve::RecommendRequest;
using kgrec::serve::RecommendResponse;
using kgrec::serve::RetrievalSpec;
using kgrec::serve::Router;
using kgrec::serve::RouterConfig;
using kgrec::serve::RouterStats;
using kgrec::serve::ScoreRequest;
using kgrec::serve::ScoreResponse;
using kgrec::serve::ServeHandle;

// ---------------------------------------------------------------------
// Shared settings.

/// Requests the closed-loop generator keeps in flight.
constexpr size_t kWindow = 4;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
constexpr size_t kTopK = 10;
/// Threads for the post-run correctness check (the timed phases are over).
constexpr size_t kVerifyThreads = 3;
/// Requests timed per standalone layer probe, and repetitions of the
/// checkpoint and index-build probes.
constexpr size_t kProbeRequests = 64;
constexpr int kCheckpointProbes = 15;
/// Share of --seconds given to each timed phase. Phases are sized in
/// requests (a workload's nominal rate × share × --seconds), so the
/// request stream — and the memory holding it — is a pure function of
/// the seed; a slower machine takes longer over the same work.
constexpr double kClosedShare = 0.4;
constexpr double kOpenShare = 0.3;
/// Traced runs only: share of --seconds for each half of the
/// untraced-vs-traced overhead comparison.
constexpr double kOverheadShare = 0.1;

size_t PhaseRequests(double per_second, double share, double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(per_second * share * seconds));
}

/// Request-stream tags: request i of a phase draws from
/// Rng(seed).Fork(tag).Fork(i).
enum PhaseTag : uint64_t {
  kTagOverhead = 1,
  kTagClosed = 2,
  kTagOpen = 3,
  kTagRefresh = 4,
  kTagUsers = 5,
};

/// One worker, so per-request cost is measured rather than scheduling,
/// and an admission bound no phase reaches.
RouterConfig OneWorker() {
  RouterConfig config;
  config.num_threads = 1;
  config.max_queue = 1 << 16;
  return config;
}

RetrievalSpec ExactSpec(bool sq8) {
  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kExact;
  spec.scan.precision = sq8 ? kgrec::retrieval::ScanPrecision::kSq8
                            : kgrec::retrieval::ScanPrecision::kFloat32;
  return spec;
}

double Ms(uint64_t begin_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

/// The handle and router of one replica, plus what starting them cost.
struct Serving {
  std::shared_ptr<const ServeHandle> handle;
  std::unique_ptr<Router> router;
  double index_ms = 0.0;
};

/// Adopts `model` under `spec` (wrapped in a traced forwarder when
/// `trace_log` is set) and starts a one-worker router over it.
Status StartServing(std::unique_ptr<const Recommender> model,
                    const RecContext& context, const RetrievalSpec& spec,
                    const std::shared_ptr<CallLog>& trace_log,
                    Serving* out) {
  if (trace_log != nullptr) model = WrapTraced(std::move(model), trace_log);
  const uint64_t start = NowNs();
  KGREC_RETURN_IF_ERROR(ServeHandle::Adopt(std::move(model), context, 1,
                                           spec, &out->handle));
  out->index_ms = Ms(start, NowNs());
  const ScopedCpu worker_cpu(kWorkerCpu);  // the pool thread inherits it
  out->router = std::make_unique<Router>(OneWorker(), out->handle);
  return Status::OK();
}

/// Set-up timings of one replica.
struct SetupTimes {
  double world_s = 0.0;
  double fit_s = 0.0;
  double index_ms = 0.0;
  double total_s = 0.0;
};

/// Sets up kSetupReps replicas in turn with `setup(trace_log, replica)`
/// and records their timings. Replica 0 is the correctness reference;
/// the last one serves, behind the traced forwarder in traced runs.
/// Every other router is stopped, except replica 1's in traced runs,
/// which serves the untraced half of the overhead comparison.
template <class Replica, class SetupFn>
bool SetUpReplicas(const Options& opt,
                   const std::shared_ptr<CallLog>& trace_log, SetupFn setup,
                   const char* fit_metric,
                   std::vector<Replica>* reps, Measured* m,
                   std::string* error) {
  reps->resize(kSetupReps);
  std::vector<double> world, fit, index;
  for (int r = 0; r < kSetupReps; ++r) {
    const bool served = r == kSetupReps - 1;
    Replica& rep = (*reps)[r];
    const Status s = setup(opt.trace && served ? trace_log : nullptr, &rep);
    if (!s.ok()) {
      *error = "setup: " + s.ToString();
      return false;
    }
    m->setup_s.push_back(rep.times.total_s);
    world.push_back(rep.times.world_s);
    fit.push_back(rep.times.fit_s);
    index.push_back(rep.times.index_ms);
    if (!(opt.trace && r == 1) && !served) rep.serving.router.reset();
  }
  m->layer["data.world_s"] = Median(world);
  m->layer[fit_metric] = Median(fit);
  m->layer["retrieval.index_build_ms"] = Median(index);
  m->setup_rss_bytes = kgrec::PeakRssBytes();
  return true;
}

// ---------------------------------------------------------------------
// Phase bookkeeping shared by the workloads.

/// Latency of OK responses, µs: from admission, or from the due time.
std::vector<double> LatencyUs(const PhaseLog& log, bool from_due) {
  std::vector<double> out;
  for (size_t i = 0; i < log.done.size(); ++i) {
    const Completed& c = log.done[i];
    if (!c.ok) continue;
    const uint64_t begin = from_due ? log.DueNs(i) : c.submitted_ns();
    out.push_back(static_cast<double>(c.completed_ns - begin) / 1e3);
  }
  return out;
}

/// Closed-loop throughput: the completion rate of each of kSlices
/// consecutive slices of the phase, reported at the slice rank (see
/// kSliceRank: the slice rates ordered from fastest).
double Throughput(const PhaseLog& log) {
  std::vector<uint64_t> t;
  for (const Completed& c : log.done) {
    if (c.ok) t.push_back(c.completed_ns);
  }
  std::sort(t.begin(), t.end());
  if (t.size() < 4 * kSlices) {
    return log.wall_s > 0.0 ? static_cast<double>(t.size()) / log.wall_s
                            : 0.0;
  }
  std::vector<double> rates;
  for (size_t k = 0; k < kSlices; ++k) {
    const size_t b = k * (t.size() - 1) / kSlices;
    const size_t e = (k + 1) * (t.size() - 1) / kSlices;
    rates.push_back(static_cast<double>(e - b) * 1e9 /
                    static_cast<double>(std::max<uint64_t>(1, t[e] - t[b])));
  }
  return Percentile(rates, 1.0 - kSliceRank);
}

/// The closed-loop phase's end-to-end figures.
void RecordClosed(const PhaseLog& log, Measured* m) {
  m->throughput_rps = Throughput(log);
  m->closed_us = LatencyUs(log, false);
  m->threads = log.threads;
}

/// The open-loop phase's end-to-end figures and generator lateness.
void RecordOpen(const PhaseLog& log, Measured* m) {
  m->open_us = LatencyUs(log, true);
  m->lateness_us = log.lateness_us;
}

/// Router counters over one phase.
void RecordCoalescing(const RouterStats& before, const RouterStats& after,
                      Measured* m) {
  const double accepted =
      static_cast<double>(after.accepted - before.accepted);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double coalesced =
      static_cast<double>(after.coalesced - before.coalesced);
  m->layer["serve.coalesced_frac"] = accepted > 0 ? coalesced / accepted : 0;
  m->layer["serve.batch_size_mean"] = batches > 0 ? accepted / batches : 0;
}

/// Swap records -> freshness and failures.
void RecordSwaps(const std::vector<Swapper::Record>& records, Measured* m,
                 RunResult* result) {
  for (const Swapper::Record& r : records) {
    ++result->attempted;
    if (!r.status.ok()) {
      std::printf("  swap %zu failed: %s\n", r.index,
                  r.status.ToString().c_str());
      result->Fail();
      continue;
    }
    m->freshness_ms.push_back(Ms(r.due_ns, r.end_ns));
  }
}

/// The traffic of one workload: how request i of a request stream is
/// made and sent, and the log of every phase run, for the accounting and
/// the correctness check after the timed phases. Request streams are
/// tagged: request i of stream `tag` is a pure function of (seed, tag,
/// i), so the check regenerates requests instead of keeping them.
template <class Request, class Response>
class Traffic {
 public:
  using MakeFn = std::function<Request(uint64_t tag, size_t i)>;
  using SendFn = std::function<std::future<Response>(Router&, Request)>;

  struct Phase {
    uint64_t tag = 0;
    PhaseLog log;
  };

  /// `keep_calls`: phases keep their submit-call times (traced runs).
  Traffic(MakeFn make, SendFn send, bool keep_calls)
      : make_(std::move(make)),
        send_(std::move(send)),
        keep_calls_(keep_calls) {}

  Request Make(uint64_t tag, size_t i) const { return make_(tag, i); }

  /// Closed loop of `count` requests of stream `tag`; `after(n)` runs
  /// after the n-th send. The generator blocks on every response, so its
  /// CPU is kept awake: a halted vCPU's wake-up would otherwise set the
  /// loop's pace.
  const Phase& Closed(Router& router, uint64_t tag, size_t count,
                      const std::function<void(size_t)>& after = {}) {
    const KeepCpusAwake awake({kGeneratorCpu});
    return Add(tag, ClosedLoop<Response>(
                        count, kWindow, keep_calls_,
                        [&](size_t i) { return send_(router, make_(tag, i)); },
                        [&](size_t n) {
                          if (after) after(n);
                        }));
  }

  /// Open loop of `count` requests at `rate`, in bursts of `burst`.
  const Phase& Open(Router& router, uint64_t tag, double rate, size_t burst,
                    size_t count) {
    const KeepCpusAwake awake({kGeneratorCpu, kWorkerCpu});
    return Add(tag, OpenLoop<Response>(
                        rate, burst, count, keep_calls_,
                        [&](size_t i) { return make_(tag, i); },
                        [&](Request r) { return send_(router, std::move(r)); }));
  }

  /// Closed loop of `swaps` × `every` requests of stream `tag`; swap s
  /// falls due midway through its `every` requests and a Swapper runs
  /// `swap(s)`, then `after(s)` off the freshness path. `awake_cpus` are
  /// kept from idling meanwhile. Swaps become freshness samples.
  const Phase& WithSwaps(Router& router, uint64_t tag, size_t swaps,
                         size_t every, const std::vector<int>& awake_cpus,
                         Swapper::SwapFn swap, Swapper::AfterFn after,
                         Measured* m, RunResult* result) {
    const KeepCpusAwake awake(awake_cpus);
    Swapper swapper(std::move(swap), std::move(after));
    const Phase& phase = Closed(router, tag, swaps * every, [&](size_t n) {
      if (n % every == every / 2) swapper.Due(n / every);
    });
    swapper.Finish();
    RecordSwaps(swapper.records(), m, result);
    return phase;
  }

  /// Traced runs: `count` closed-loop requests on an untraced replica,
  /// then the identical stream on the traced one; the difference of
  /// their p50 routed latency is the tracing overhead. Returns the traced
  /// phase.
  const Phase& Overhead(Router& plain, Router& traced, size_t count,
                        Measured* m) {
    const Phase& base = Closed(plain, kTagOverhead, count);
    const Phase& with = Closed(traced, kTagOverhead, count);
    const double base_us = Median(LatencyUs(base.log, false));
    const double with_us = Median(LatencyUs(with.log, false));
    m->layer["bench.trace_overhead_p50_us"] = with_us - base_us;
    m->layer["bench.trace_overhead_frac"] =
        base_us > 0 ? (with_us - base_us) / base_us : 0;
    std::printf("  tracing overhead: closed p50 %.1fus untraced vs %.1fus "
                "traced over %zu requests each\n",
                base_us, with_us, base.log.done.size());
    return with;
  }

  /// Bytes the phase logs hold.
  size_t LogBytes() const {
    size_t bytes = 0;
    for (const Phase& p : phases_) {
      bytes += p.log.done.capacity() * sizeof(Completed) +
               p.log.calls.capacity() * sizeof(CallTimes);
    }
    return bytes;
  }

  /// The user of each request of a phase.
  std::vector<int32_t> Users(const Phase& phase) const {
    std::vector<int32_t> users;
    for (size_t i = 0; i < phase.log.done.size(); ++i) {
      users.push_back(make_(phase.tag, i).user);
    }
    return users;
  }

  /// Counts every request as attempted and each non-OK one as failed.
  void Account(RunResult* result) const {
    for (const Phase& p : phases_) {
      result->attempted += p.log.done.size();
      for (const Completed& c : p.log.done) {
        if (!c.ok) result->Fail();
      }
    }
  }

  /// Runs `check(request, record)`, with the request regenerated, on
  /// every OK record that `select(record)` picks, on kVerifyThreads
  /// threads; each record that fails it is a failed operation.
  template <class Select, class Check>
  void Verify(Select select, Check check, RunResult* result) const {
    const ScopedCpu any_cpu(kAnyCpu);
    for (const Phase& p : phases_) {
      const std::vector<Completed>& done = p.log.done;
      std::vector<uint8_t> bad(done.size(), 0);
      const Status status = kgrec::ParallelFor(
          done.size(), kVerifyThreads, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              if (!done[i].ok || !select(done[i])) continue;
              bad[i] = check(make_(p.tag, i), done[i]) ? 0 : 1;
            }
            return Status::OK();
          });
      result->Fail(status.ok() ? static_cast<uint64_t>(std::count(
                                     bad.begin(), bad.end(), 1))
                               : done.size());
    }
  }

  const std::deque<Phase>& phases() const { return phases_; }

 private:
  const Phase& Add(uint64_t tag, PhaseLog log) {
    phases_.push_back({tag, std::move(log)});
    return phases_.back();
  }

  MakeFn make_;
  SendFn send_;
  bool keep_calls_ = false;
  std::deque<Phase> phases_;  // a deque: returned references stay valid
};

/// Traced mode: rebuilds each request's spans from the generator's and
/// router's timestamps plus the traced model's call log.
///   client.request (root) > serve.submit, serve.routed
///   serve.routed > model.score_items | retrieval.query_scan (its own
///                  model work), serve.behind (another request's model
///                  work the one worker did meanwhile)
/// The index path's model work runs from FillUserQuery's entry to the
/// response's completion (query + scan). The self time of serve.routed
/// is the router's own share: admission, steal/group, dispatch, idle
/// wake-ups and, on the index path, SanitizeExclude. Only the first
/// kSpanRequests requests of a phase are kept as spans; the submit and
/// router-self statistics use every closed-loop request.
constexpr size_t kSpanRequests = 10'000;

struct TraceState {
  std::shared_ptr<CallLog> calls = std::make_shared<CallLog>();
  SpanRecorder spans;
  std::vector<double> submit_us;
  std::vector<double> router_self_us;
  uint64_t next_request = 0;
};

void AddSpans(const PhaseLog& log, const std::vector<int32_t>& users,
              const std::vector<ModelCall>& calls, bool index_path,
              bool closed_loop, TraceState* trace) {
  std::vector<uint64_t> submitted, completed;
  for (const Completed& c : log.done) {
    submitted.push_back(c.submitted_ns());
    completed.push_back(c.completed_ns);
  }
  const std::vector<int64_t> match =
      MatchCalls(calls, users, submitted, completed);
  // The model-work interval of each request, and the distinct intervals
  // the worker spent in the model (a coalesced ScoreItems call serves
  // several requests once), in time order.
  std::vector<std::pair<uint64_t, uint64_t>> own(log.done.size(), {0, 0});
  std::vector<std::pair<uint64_t, uint64_t>> work;
  for (size_t r = 0; r < log.done.size(); ++r) {
    if (match[r] < 0 || !log.done[r].ok) continue;
    const ModelCall& call = calls[static_cast<size_t>(match[r])];
    own[r] = {call.start_ns, index_path ? completed[r] : call.end_ns};
    work.push_back(own[r]);
  }
  std::sort(work.begin(), work.end());
  work.erase(std::unique(work.begin(), work.end()), work.end());

  for (size_t r = 0; r < log.done.size(); ++r) {
    if (!log.done[r].ok) continue;
    const CallTimes& call = log.calls[r];
    const bool keep = r < kSpanRequests;
    const uint64_t id = trace->next_request++;
    int64_t routed = -1;
    if (keep) {
      const int64_t root =
          trace->spans.Add("client.request", call.begin_ns,
                           std::max(call.end_ns, completed[r]), -1, id);
      trace->spans.Add("serve.submit", call.begin_ns, call.end_ns, root, id);
      routed = trace->spans.Add("serve.routed", submitted[r], completed[r],
                                root, id);
    }
    if (closed_loop) {
      trace->submit_us.push_back(
          static_cast<double>(call.end_ns - call.begin_ns) / 1e3);
    }
    if (match[r] < 0) continue;
    // Model work inside the routed interval, this request's or another's.
    uint64_t covered = 0;
    auto it = std::lower_bound(
        work.begin(), work.end(), std::make_pair(submitted[r], uint64_t{0}));
    if (it != work.begin()) --it;  // may start before admission
    for (; it != work.end() && it->first < completed[r]; ++it) {
      const uint64_t lo = std::max(it->first, submitted[r]);
      const uint64_t hi = std::min(it->second, completed[r]);
      if (lo >= hi) continue;
      covered += hi - lo;
      if (keep) {
        const bool mine = *it == own[r];
        trace->spans.Add(mine ? (index_path ? "retrieval.query_scan"
                                            : "model.score_items")
                              : "serve.behind",
                         lo, hi, routed, id);
      }
    }
    if (closed_loop) {
      trace->router_self_us.push_back(
          static_cast<double>(completed[r] - submitted[r] - covered) / 1e3);
    }
  }
}

/// Spans of the traced phases (the traced model's calls are matched to
/// each phase's requests), then the submit and router-self medians and
/// the span dump.
template <class Traffic, class Phase>
void FinishTrace(const Options& options, const Traffic& traffic,
                 const std::vector<std::pair<const Phase*, bool>>& traced,
                 bool index_path, TraceState* trace, Measured* m) {
  const std::vector<ModelCall> calls = trace->calls->Sorted();
  for (const auto& [phase, closed_loop] : traced) {
    AddSpans(phase->log, traffic.Users(*phase), calls, index_path,
             closed_loop, trace);
  }
  m->layer["serve.submit_us"] = Median(trace->submit_us);
  m->layer["serve.router_self_us"] = Median(trace->router_self_us);
  const std::string path = options.scratch_dir + "/spans_" +
                           options.workload + "_seed" +
                           std::to_string(options.seed) + ".jsonl";
  const bool written = trace->spans.WriteJsonl(path);
  std::printf("  spans: %zu (router self time from %zu closed-loop "
              "requests) %s %s\n",
              trace->spans.size(), trace->router_self_us.size(),
              written ? "written to" : "NOT written to", path.c_str());
}

/// Closes the timed part of a run: the program's peak memory (before the
/// correctness check builds its references), the log size beside it,
/// host steal over the run and the served mode after swaps.
void EndTimedPhases(size_t log_bytes, uint64_t steal0,
                    const std::string& mode_after, Measured* m) {
  m->peak_rss_bytes = kgrec::PeakRssBytes();
  m->log_bytes = log_bytes;
  m->steal_ticks = StealTicks() - steal0;
  m->mode_after = mode_after;
}

// ---------------------------------------------------------------------
// Retrieval-layer probes (index-served workloads).

/// Times query prep (SanitizeExclude + FillUserQuery) and the scan on the
/// served SQ8 index and on a float32 index over the same factors.
void ProbeRetrieval(const std::vector<RecommendRequest>& sample,
                    const kgrec::DotProductFactors& factors,
                    const kgrec::retrieval::ItemIndex& sq8,
                    const kgrec::retrieval::ItemIndex& f32, int32_t num_items,
                    Measured* m) {
  kgrec::retrieval::SearchScratch scratch;
  std::vector<float> query(factors.factor_dim());
  std::vector<std::pair<int32_t, float>> out;
  std::vector<double> prep_us, scan_us, f32_us;
  for (const RecommendRequest& r : sample) {
    const uint64_t t0 = NowNs();
    const std::vector<int32_t> exclude =
        kgrec::retrieval::SanitizeExclude(r.exclude, num_items);
    factors.FillUserQuery(r.user, query);
    const uint64_t t1 = NowNs();
    sq8.QueryInto(query, r.k, exclude, scratch, &out);
    const uint64_t t2 = NowNs();
    f32.QueryInto(query, r.k, exclude, scratch, &out);
    const uint64_t t3 = NowNs();
    prep_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    scan_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    f32_us.push_back(static_cast<double>(t3 - t2) / 1e3);
  }
  const size_t pool = sq8.scan().PoolSize(kTopK);
  m->layer["retrieval.query_prep_us"] = Median(prep_us);
  m->layer["retrieval.scan_us"] = Median(scan_us);
  m->layer["retrieval.scan_f32_us"] = Median(f32_us);
  m->layer["retrieval.pool_useful_frac"] =
      static_cast<double>(kTopK) / static_cast<double>(pool);
  // Computed, not measured: every u8 code row is streamed once, then the
  // pool's float rows are re-ranked.
  m->layer["math.scan_bytes_per_query"] = static_cast<double>(
      sq8.num_items() * sq8.dim() + pool * sq8.dim() * sizeof(float));
}

/// Standalone Save and LoadModel-style restore of `model` (median of
/// kCheckpointProbes), plus the checkpoint size.
template <class LoadFn>
void ProbeCheckpoint(const Recommender& model, const std::string& path,
                     LoadFn load, Measured* m) {
  std::vector<double> save_ms, load_ms;
  for (int i = 0; i < kCheckpointProbes; ++i) {
    const uint64_t t0 = NowNs();
    const Status saved = model.Save(path);
    const uint64_t t1 = NowNs();
    const Status loaded = load(path);
    const uint64_t t2 = NowNs();
    if (!saved.ok() || !loaded.ok()) return;
    save_ms.push_back(Ms(t0, t1));
    load_ms.push_back(Ms(t1, t2));
  }
  m->layer["core.save_ms"] = Median(save_ms);
  m->layer["core.load_ms"] = Median(load_ms);
  std::error_code ec;
  m->layer["core.checkpoint_bytes"] =
      static_cast<double>(std::filesystem::file_size(path, ec));
}

RecommendRequest MakeRecommend(const kgrec::InteractionDataset& train,
                               int32_t num_users, uint64_t seed, uint64_t tag,
                               size_t i) {
  Rng rng = Rng(seed).Fork(tag).Fork(i);
  RecommendRequest r;
  r.user = static_cast<int32_t>(
      rng.UniformInt(static_cast<uint64_t>(num_users)));
  r.k = kTopK;
  const std::span<const int32_t> history = train.UserItems(r.user);
  r.exclude.assign(history.begin(), history.end());
  return r;
}

// ---------------------------------------------------------------------
// recommend_200k_sq8: MF over a 200k-item catalog, SQ8 exact index.

/// Sizes the phases (see PhaseRequests); about one worker's closed-loop
/// rate on a 4-vCPU x86 VM.
constexpr double kRecommendNominalRps = 300.0;
/// About a quarter of one worker's capacity: at half, a host that loses
/// half its CPU for a while pushes the open loop to saturation.
constexpr double kRecommendOpenRate = 75.0;
constexpr size_t kRecommendRefreshes = 24;
constexpr size_t kRecommendRefreshEvery = 80;  // requests between refreshes

kgrec::MegaWorldConfig RecommendWorld() {
  kgrec::MegaWorldConfig c;
  c.num_users = 20'000;
  c.num_items = 200'000;
  c.num_attr_values = 2'000;
  c.num_facts = 100'000;
  c.avg_interactions_per_user = 10.0;
  c.seed = 17;
  return c;
}

kgrec::MfConfig RecommendMf() {
  kgrec::MfConfig c;
  c.dim = 16;
  c.epochs = 2;
  // Large batches and no weight decay, as in bench/mega_scale: the dense
  // Adagrad step otherwise dominates, and decay collapses cold rows.
  c.batch_size = 4096;
  c.l2 = 0.0f;
  return c;
}

struct MegaReplica {
  std::unique_ptr<kgrec::MegaWorld> world;
  RecContext ctx;
  Serving serving;
  SetupTimes times;
};

Status SetupMega(const std::shared_ptr<CallLog>& trace_log,
                 MegaReplica* rep) {
  const Clock::time_point start = Clock::now();
  rep->world = std::make_unique<kgrec::MegaWorld>(
      kgrec::GenerateMegaWorld(RecommendWorld()));
  rep->world->kg.Finalize();
  rep->ctx.train = &rep->world->interactions;
  rep->ctx.item_kg = &rep->world->kg;
  rep->ctx.seed = 17;
  rep->times.world_s = SecondsSince(start);
  auto model = std::make_unique<kgrec::MfRecommender>(RecommendMf());
  model->Fit(rep->ctx);
  rep->times.fit_s = SecondsSince(start) - rep->times.world_s;
  KGREC_RETURN_IF_ERROR(StartServing(std::move(model), rep->ctx,
                                     ExactSpec(true), trace_log,
                                     &rep->serving));
  rep->times.index_ms = rep->serving.index_ms;
  rep->times.total_s = SecondsSince(start);
  return Status::OK();
}

/// Restores the MF checkpoint at `path` into a fresh model.
Status LoadMf(const RecContext& ctx, const std::string& path,
              std::unique_ptr<Recommender>* out) {
  auto model = std::make_unique<kgrec::MfRecommender>(RecommendMf());
  KGREC_RETURN_IF_ERROR(model->Load(ctx, path));
  *out = std::move(model);
  return Status::OK();
}

using RecommendTraffic = Traffic<RecommendRequest, RecommendResponse>;
using ScoreTraffic = Traffic<ScoreRequest, ScoreResponse>;

std::future<RecommendResponse> SendRecommend(Router& router,
                                             RecommendRequest r) {
  return router.SubmitRecommend(std::move(r));
}

std::future<ScoreResponse> SendScore(Router& router, ScoreRequest r) {
  return router.Submit(std::move(r));
}

bool RunRecommend(const Options& opt, RunResult* result, std::string* error) {
  Measured m;
  TraceState trace;
  const uint64_t steal0 = StealTicks();

  std::vector<MegaReplica> reps;
  if (!SetUpReplicas(opt, trace.calls, SetupMega, "cf.fit_s", &reps, &m,
                     error)) {
    return false;
  }
  MegaReplica& ref = reps[0];
  MegaReplica& live = reps[kSetupReps - 1];
  Router& router = *live.serving.router;
  const int32_t num_users = ref.world->config.num_users;
  const int32_t num_items = ref.world->config.num_items;

  // Replica 0's model, checkpointed: the refresh phase serves it again,
  // and after the timed phases the reference is restored from it.
  const std::string ckpt = opt.scratch_dir + "/recommend_mf.kgrc";
  const Status saved = ref.serving.handle->model().Save(ckpt);
  if (!saved.ok()) {
    *error = "checkpoint: " + saved.ToString();
    return false;
  }
  m.mode_before = live.serving.handle->retrieval_mode();

  RecommendTraffic traffic(
      [&](uint64_t tag, size_t i) {
        return MakeRecommend(*ref.ctx.train, num_users, opt.seed, tag, i);
      },
      SendRecommend, opt.trace);
  const RecommendTraffic::Phase* traced = nullptr;
  if (opt.trace) {
    traced = &traffic.Overhead(
        *reps[1].serving.router, router,
        PhaseRequests(kRecommendNominalRps, kOverheadShare, opt.seconds), &m);
    reps[1].serving.router.reset();
  }

  const RouterStats before = router.Stats();
  const RecommendTraffic::Phase& closed = traffic.Closed(
      router, kTagClosed,
      PhaseRequests(kRecommendNominalRps, kClosedShare, opt.seconds));
  RecordCoalescing(before, router.Stats(), &m);
  RecordClosed(closed.log, &m);

  const RecommendTraffic::Phase& open = traffic.Open(
      router, kTagOpen, kRecommendOpenRate, 1,
      PhaseRequests(kRecommendOpenRate, kOpenShare, opt.seconds));
  RecordOpen(open.log, &m);

  // Refresh: an operator pushes the checkpoint again, keeping the SQ8
  // spec, while closed-loop traffic continues.
  std::vector<double> load_ms, build_ms, swap_ms;
  traffic.WithSwaps(
      router, kTagRefresh, kRecommendRefreshes, kRecommendRefreshEvery,
      {kWorkerCpu, kSwapperCpu},
      [&](size_t) -> Status {
        const uint64_t t0 = NowNs();
        std::unique_ptr<Recommender> model;
        KGREC_RETURN_IF_ERROR(LoadMf(ref.ctx, ckpt, &model));
        const uint64_t t1 = NowNs();
        std::shared_ptr<const ServeHandle> fresh;
        KGREC_RETURN_IF_ERROR(ServeHandle::Adopt(
            std::move(model), ref.ctx, router.current()->generation() + 1,
            ExactSpec(true), &fresh));
        const uint64_t t2 = NowNs();
        load_ms.push_back(Ms(t0, t1));
        build_ms.push_back(Ms(t1, t2));
        const Status status = router.Swap(std::move(fresh));
        swap_ms.push_back(Ms(t0, NowNs()));
        return status;
      },
      {}, &m, result);
  EndTimedPhases(traffic.LogBytes(), steal0,
                 router.current()->retrieval_mode(), &m);
  m.layer["serve.swap_ms"] = Median(swap_ms);
  m.layer["serve.swap_self_ms"] =
      Median(swap_ms) - Median(load_ms) - Median(build_ms);

  // Correctness: every response bitwise equal to a float32 exact handle
  // over replica 0's model.
  std::unique_ptr<Recommender> ref_model;
  Status s = LoadMf(ref.ctx, ckpt, &ref_model);
  std::shared_ptr<const ServeHandle> reference;
  if (s.ok()) {
    s = ServeHandle::Adopt(std::move(ref_model), ref.ctx, 0, ExactSpec(false),
                           &reference);
  }
  if (!s.ok()) {
    *error = "reference: " + s.ToString();
    return false;
  }
  traffic.Account(result);
  traffic.Verify(
      [](const Completed&) { return true; },
      [&](const RecommendRequest& q, const Completed& c) {
        return c.digest ==
               Digest(reference->Recommend(q.user, q.k, q.exclude));
      },
      result);

  if (opt.trace) {
    FinishTrace(opt, traffic,
                std::vector<std::pair<const RecommendTraffic::Phase*, bool>>{
                    {traced, true}, {&closed, true}, {&open, false}},
                true, &trace, &m);
    std::vector<RecommendRequest> sample;
    for (size_t i = 0; i < kProbeRequests; ++i) {
      sample.push_back(traffic.Make(kTagClosed, i));
    }
    ProbeRetrieval(sample, *kgrec::AsFactorizable(reference->model()),
                   *live.serving.handle->index(), *reference->index(),
                   num_items, &m);
    ProbeCheckpoint(reference->model(), ckpt,
                    [&](const std::string& path) {
                      std::unique_ptr<Recommender> loaded;
                      return LoadMf(ref.ctx, path, &loaded);
                    },
                    &m);
  }
  Report(opt, m, result);
  return true;
}

// ---------------------------------------------------------------------
// rank_kgcn_zipf: KGCN scores 100 candidates per request, Zipf users.

constexpr double kRankNominalRps = 2500.0;  // sizes the phases
constexpr double kRankOpenRate = 500.0;     // ~a quarter of capacity
constexpr size_t kRankOpenBurst = 4;
constexpr size_t kRankCandidates = 100;
constexpr double kZipfExponent = 1.1;
constexpr size_t kRankRefreshes = 200;
constexpr size_t kRankRefreshEvery = 30;

struct SyntheticReplica {
  std::unique_ptr<kgrec::SyntheticWorld> world;
  RecContext ctx;
  Serving serving;
  SetupTimes times;
};

Status SetupRank(const std::shared_ptr<CallLog>& trace_log,
                 SyntheticReplica* rep) {
  const Clock::time_point start = Clock::now();
  rep->world = std::make_unique<kgrec::SyntheticWorld>(
      kgrec::GenerateWorld(kgrec::GetPreset("movielens-100k").config));
  rep->ctx.train = &rep->world->interactions;
  rep->ctx.item_kg = &rep->world->item_kg;
  rep->ctx.seed = 17;
  rep->times.world_s = SecondsSince(start);
  std::unique_ptr<Recommender> model = kgrec::MakeRecommender("KGCN");
  model->Fit(rep->ctx);
  rep->times.fit_s = SecondsSince(start) - rep->times.world_s;
  KGREC_RETURN_IF_ERROR(StartServing(std::move(model), rep->ctx,
                                     RetrievalSpec{}, trace_log,
                                     &rep->serving));
  rep->times.index_ms = rep->serving.index_ms;
  rep->times.total_s = SecondsSince(start);
  return Status::OK();
}

/// Zipf(kZipfExponent) over users, hottest user chosen by the seed.
class ZipfUsers {
 public:
  ZipfUsers(int32_t num_users, uint64_t seed) : order_(num_users) {
    std::iota(order_.begin(), order_.end(), 0);
    Rng(seed).Fork(kTagUsers).Shuffle(order_);
    double total = 0.0;
    for (int32_t rank = 1; rank <= num_users; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int32_t Draw(Rng& rng) const {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform()) -
        cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  std::vector<int32_t> order_;
  std::vector<double> cdf_;
};

ScoreRequest MakeScore(const ZipfUsers& users, int32_t num_items,
                       uint64_t seed, uint64_t tag, size_t i) {
  Rng rng = Rng(seed).Fork(tag).Fork(i);
  ScoreRequest r;
  r.user = users.Draw(rng);
  std::vector<int32_t> items(static_cast<size_t>(num_items));
  std::iota(items.begin(), items.end(), 0);
  for (size_t j = 0; j < kRankCandidates; ++j) {
    const size_t pick = j + rng.UniformInt(items.size() - j);
    std::swap(items[j], items[pick]);
  }
  items.resize(kRankCandidates);
  r.items = std::move(items);
  return r;
}

bool RunRank(const Options& opt, RunResult* result, std::string* error) {
  Measured m;
  TraceState trace;
  const uint64_t steal0 = StealTicks();

  std::vector<SyntheticReplica> reps;
  if (!SetUpReplicas(opt, trace.calls, SetupRank, "unified.fit_s", &reps, &m,
                     error)) {
    return false;
  }
  SyntheticReplica& ref = reps[0];
  SyntheticReplica& live = reps[kSetupReps - 1];
  Router& router = *live.serving.router;
  // The reference: replica 0's fitted model, called directly.
  const Recommender& reference = ref.serving.handle->model();
  const std::string ckpt = opt.scratch_dir + "/rank_kgcn.kgrc";
  const Status saved = reference.Save(ckpt);
  if (!saved.ok()) {
    *error = "checkpoint: " + saved.ToString();
    return false;
  }
  m.mode_before = live.serving.handle->retrieval_mode();

  const ZipfUsers users(ref.ctx.train->num_users(), opt.seed);
  const int32_t num_items = ref.ctx.train->num_items();
  ScoreTraffic traffic(
      [&](uint64_t tag, size_t i) {
        return MakeScore(users, num_items, opt.seed, tag, i);
      },
      SendScore, opt.trace);
  const ScoreTraffic::Phase* traced = nullptr;
  if (opt.trace) {
    traced = &traffic.Overhead(
        *reps[1].serving.router, router,
        PhaseRequests(kRankNominalRps, kOverheadShare, opt.seconds), &m);
    reps[1].serving.router.reset();
  }

  const RouterStats before = router.Stats();
  const ScoreTraffic::Phase& closed = traffic.Closed(
      router, kTagClosed,
      PhaseRequests(kRankNominalRps, kClosedShare, opt.seconds));
  RecordCoalescing(before, router.Stats(), &m);
  RecordClosed(closed.log, &m);

  const ScoreTraffic::Phase& open = traffic.Open(
      router, kTagOpen, kRankOpenRate, kRankOpenBurst,
      PhaseRequests(kRankOpenRate, kOpenShare, opt.seconds));
  RecordOpen(open.log, &m);

  // Refresh: SwapFromCheckpoint of the same checkpoint under traffic.
  std::vector<double> swap_ms;
  traffic.WithSwaps(
      router, kTagRefresh, kRankRefreshes, kRankRefreshEvery,
      {kWorkerCpu, kSwapperCpu},
      [&](size_t) {
        const uint64_t t0 = NowNs();
        const Status status = router.SwapFromCheckpoint(ref.ctx, ckpt);
        swap_ms.push_back(Ms(t0, NowNs()));
        return status;
      },
      {}, &m, result);
  EndTimedPhases(traffic.LogBytes(), steal0,
                 router.current()->retrieval_mode(), &m);
  m.layer["serve.swap_ms"] = Median(swap_ms);

  traffic.Account(result);
  traffic.Verify(
      [](const Completed&) { return true; },
      [&](const ScoreRequest& q, const Completed& c) {
        return c.digest == Digest(reference.ScoreItems(q.user, q.items));
      },
      result);

  if (opt.trace) {
    FinishTrace(opt, traffic,
                std::vector<std::pair<const ScoreTraffic::Phase*, bool>>{
                    {traced, true}, {&closed, true}, {&open, false}},
                false, &trace, &m);
    std::vector<double> score_us;
    for (size_t i = 0; i < kProbeRequests; ++i) {
      const ScoreRequest q = traffic.Make(kTagClosed, i);
      const uint64_t t0 = NowNs();
      const std::vector<float> scores = reference.ScoreItems(q.user, q.items);
      score_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    m.layer["unified.score_items_us"] = Median(score_us);
    m.layer["unified.score_ns_per_candidate"] =
        Median(score_us) * 1e3 / static_cast<double>(kRankCandidates);
    ProbeCheckpoint(reference, ckpt,
                    [&](const std::string& path) {
                      std::unique_ptr<Recommender> loaded;
                      return kgrec::LoadModel(ref.ctx, path, &loaded);
                    },
                    &m);
    // The refresh swap is a LoadModel plus the flip and drain.
    m.layer["serve.swap_self_ms"] =
        Median(swap_ms) - m.layer["core.load_ms"];
  }
  Report(opt, m, result);
  return true;
}

// ---------------------------------------------------------------------
// stream_cke_swaps: CKE on an EventStream base, swaps under reads.

/// Reads cost ~30 µs, the same order as waking an idle worker, so the
/// open loop sends bursts: one wake-up per burst, and the latency within
/// a burst is queueing behind its earlier members.
constexpr double kStreamOpenRate = 8000.0;
constexpr size_t kStreamOpenBurst = 32;
constexpr size_t kStreamBatches = 100;
/// Sizes the phases; the swap phase's N reads fix when each of the
/// kStreamBatches batches falls due (every N/100 reads).
constexpr double kStreamNominalRps = 30000.0;
constexpr double kStreamSwapShare = 0.5;

kgrec::EventStreamConfig StreamConfig() {
  kgrec::EventStreamConfig c;
  c.world = kgrec::GetPreset("movielens-1m").config;
  c.base_user_fraction = 0.6;
  return c;
}

/// One copy of the streamed world's serving structures.
struct WorldCopy {
  kgrec::InteractionDataset train;
  kgrec::KnowledgeGraph kg;
  kgrec::UserItemGraph uig;

  explicit WorldCopy(const kgrec::EventStream& stream)
      : train(stream.BaseInteractions()),
        kg(stream.BaseItemKg()),
        uig(stream.BaseUserItemGraph()) {}
  RecContext ctx() const {
    RecContext c;
    c.train = &train;
    c.item_kg = &kg;
    c.user_item_graph = &uig;
    c.seed = 17;
    return c;
  }
  /// Applies `batch`; returns milliseconds taken.
  double Apply(const kgrec::EventStream& stream,
               const kgrec::EventBatch& batch) {
    const uint64_t t0 = NowNs();
    stream.ApplyBatch(batch, &train, &kg);
    stream.ApplyBatchToUserItemGraph(batch, &uig);
    return Ms(t0, NowNs());
  }
};

struct StreamReplica {
  std::unique_ptr<kgrec::EventStream> stream;
  std::unique_ptr<WorldCopy> base;
  Serving serving;
  SetupTimes times;
};

Status SetupStream(const std::shared_ptr<CallLog>& trace_log,
                   StreamReplica* rep) {
  const Clock::time_point start = Clock::now();
  rep->stream = std::make_unique<kgrec::EventStream>(StreamConfig());
  rep->base = std::make_unique<WorldCopy>(*rep->stream);
  rep->times.world_s = SecondsSince(start);
  std::unique_ptr<Recommender> model = kgrec::MakeRecommender("CKE");
  model->Fit(rep->base->ctx());
  rep->times.fit_s = SecondsSince(start) - rep->times.world_s;
  KGREC_RETURN_IF_ERROR(StartServing(std::move(model), rep->base->ctx(),
                                     ExactSpec(true), trace_log,
                                     &rep->serving));
  rep->times.index_ms = rep->serving.index_ms;
  rep->times.total_s = SecondsSince(start);
  return Status::OK();
}

bool RunStream(const Options& opt, RunResult* result, std::string* error) {
  Measured m;
  TraceState trace;
  const uint64_t steal0 = StealTicks();

  // Replica 0 is the reference; in traced runs replica 2 sits behind the
  // traced forwarder for the overhead comparison and the open loop, and
  // replica 1 (untraced: a forwarder cannot be checkpointed, and every
  // swap clones the live model through a checkpoint) takes the swaps.
  std::vector<StreamReplica> reps;
  if (!SetUpReplicas(opt, trace.calls, SetupStream, "embed.fit_s", &reps, &m,
                     error)) {
    return false;
  }
  StreamReplica& ref = reps[0];
  StreamReplica& live = reps[kSetupReps - 1];
  StreamReplica& swapped = opt.trace ? reps[1] : live;
  const kgrec::EventStream& stream = *ref.stream;
  const std::string ckpt = opt.scratch_dir + "/stream_cke.kgrc";
  const Status saved = ref.serving.handle->model().Save(ckpt);
  if (!saved.ok()) {
    *error = "checkpoint: " + saved.ToString();
    return false;
  }
  m.mode_before = live.serving.handle->retrieval_mode();

  const int32_t base_users = stream.base_num_users();
  const int32_t num_items = stream.num_items();
  RecommendTraffic traffic(
      [&](uint64_t tag, size_t i) {
        return MakeRecommend(ref.base->train, base_users, opt.seed, tag, i);
      },
      SendRecommend, opt.trace);
  const RecommendTraffic::Phase* traced = nullptr;
  if (opt.trace) {
    traced = &traffic.Overhead(
        *reps[1].serving.router, *live.serving.router,
        PhaseRequests(kStreamNominalRps, kOverheadShare, opt.seconds), &m);
  }

  // Open loop at a fixed rate, on the base generation.
  const RecommendTraffic::Phase& open = traffic.Open(
      *live.serving.router, kTagOpen, kStreamOpenRate, kStreamOpenBurst,
      PhaseRequests(kStreamOpenRate, kOpenShare, opt.seconds));
  RecordOpen(open.log, &m);
  if (opt.trace) live.serving.router.reset();

  // Closed loop with the stream folded in ~100 swaps. The swapper keeps
  // two world copies: the live generation's (pre) and the next (post).
  Router& router = *swapped.serving.router;
  const size_t batch_every = std::max<size_t>(
      1, PhaseRequests(kStreamNominalRps, kStreamSwapShare, opt.seconds) /
             kStreamBatches);
  const size_t n = stream.size();
  const auto batch = [&](size_t b) {
    return stream.Batch(b * n / kStreamBatches, (b + 1) * n / kStreamBatches);
  };
  WorldCopy buffers[2] = {WorldCopy(stream), WorldCopy(stream)};
  size_t applied[2] = {0, 0};  // batches each copy has applied
  std::vector<double> apply_ms, swap_ms;
  // Batch b moves the live world from state b to b + 1. The post copy is
  // brought to b + 1 on the freshness path; once the swap returns, the
  // now-idle pre copy catches up to b + 1 off it, so the next swap
  // applies one batch, not two.
  const auto advance = [&](int copy, size_t to) {
    while (applied[copy] < to) {
      apply_ms.push_back(buffers[copy].Apply(stream, batch(applied[copy]++)));
    }
  };
  const RouterStats before = router.Stats();
  const RecommendTraffic::Phase& closed = traffic.WithSwaps(
      router, kTagClosed, kStreamBatches, batch_every, {kSwapperCpu},
      [&](size_t b) {
        advance((b + 1) % 2, b + 1);
        const uint64_t t0 = NowNs();
        const Status status = router.SwapFromUpdate(
            buffers[b % 2].ctx(), buffers[(b + 1) % 2].ctx(), batch(b));
        swap_ms.push_back(Ms(t0, NowNs()));
        return status;
      },
      [&](size_t b) { advance(b % 2, b + 1); }, &m, result);
  RecordCoalescing(before, router.Stats(), &m);
  RecordClosed(closed.log, &m);
  EndTimedPhases(traffic.LogBytes(), steal0,
                 router.current()->retrieval_mode(), &m);
  m.layer["serve.swap_ms"] = Median(swap_ms);
  m.layer["data.apply_batch_ms"] = Median(apply_ms);

  // Correctness: replay fit -> Update(b1..bg) serially (replica 0's fit,
  // restored from its checkpoint) and check each response against the
  // float32 exact top-k of the generation that stamped it.
  traffic.Account(result);
  std::unique_ptr<Recommender> chain;
  Status s = kgrec::LoadModel(ref.base->ctx(), ckpt, &chain);
  if (!s.ok()) {
    *error = "reference: " + s.ToString();
    return false;
  }
  WorldCopy chain_world(stream);
  std::vector<double> update_ms;
  double update_events = 0.0, update_total_ms = 0.0;
  std::unique_ptr<kgrec::retrieval::BruteForceIndex> gen1_f32;
  const uint64_t last_gen = 1 + m.freshness_ms.size();
  for (uint64_t gen = 1; gen <= last_gen; ++gen) {
    if (gen > 1) {
      const kgrec::EventBatch b = batch(gen - 2);
      chain_world.Apply(stream, b);
      const uint64_t t0 = NowNs();
      s = chain->Update(chain_world.ctx(), b);
      update_ms.push_back(Ms(t0, NowNs()));
      update_total_ms += update_ms.back();
      update_events += static_cast<double>(b.size());
      if (!s.ok()) {
        *error = "reference update: " + s.ToString();
        return false;
      }
    }
    const kgrec::DotProductFactors* factors = kgrec::AsFactorizable(*chain);
    auto index = std::make_unique<kgrec::retrieval::BruteForceIndex>(
        factors->ExportItemFactors());
    traffic.Verify(
        [gen](const Completed& c) { return c.generation == gen; },
        [&](const RecommendRequest& q, const Completed& c) {
          std::vector<float> query(factors->factor_dim());
          factors->FillUserQuery(q.user, query);
          return c.digest ==
                 Digest(index->Query(
                     query, q.k,
                     kgrec::retrieval::SanitizeExclude(q.exclude,
                                                       num_items)));
        },
        result);
    if (gen == 1) gen1_f32 = std::move(index);
  }
  // A response stamped with a generation no swap produced fails too.
  for (const RecommendTraffic::Phase& phase : traffic.phases()) {
    for (const Completed& c : phase.log.done) {
      if (c.ok && (c.generation < 1 || c.generation > last_gen)) {
        result->Fail();
      }
    }
  }
  m.layer["embed.update_ms"] = Median(update_ms);
  m.layer["embed.update_events_per_s"] =
      update_total_ms > 0 ? update_events / (update_total_ms / 1e3) : 0.0;

  if (opt.trace) {
    FinishTrace(opt, traffic,
                std::vector<std::pair<const RecommendTraffic::Phase*, bool>>{
                    {traced, true}, {&open, false}},
                true, &trace, &m);
    std::unique_ptr<Recommender> base_model;
    s = kgrec::LoadModel(ref.base->ctx(), ckpt, &base_model);
    if (s.ok()) {
      std::vector<RecommendRequest> sample;
      for (size_t i = 0; i < kProbeRequests; ++i) {
        sample.push_back(traffic.Make(kTagOpen, i));
      }
      ProbeRetrieval(sample, *kgrec::AsFactorizable(*base_model),
                     *ref.serving.handle->index(), *gen1_f32, num_items, &m);
      ProbeCheckpoint(*base_model, ckpt,
                      [&](const std::string& path) {
                        std::unique_ptr<Recommender> loaded;
                        return kgrec::LoadModel(ref.base->ctx(), path,
                                                &loaded);
                      },
                      &m);
      // A swap = save + load + update + a float32 index build (kAuto) +
      // flip and drain; self time is what the standalone parts miss.
      std::vector<double> f32_build_ms;
      for (int i = 0; i < kCheckpointProbes; ++i) {
        std::unique_ptr<Recommender> copy;
        if (!kgrec::LoadModel(ref.base->ctx(), ckpt, &copy).ok()) break;
        const uint64_t t0 = NowNs();
        const std::shared_ptr<const ServeHandle> h =
            ServeHandle::Adopt(std::move(copy), ref.base->ctx(), 0);
        f32_build_ms.push_back(Ms(t0, NowNs()));
      }
      m.layer["serve.swap_self_ms"] =
          Median(swap_ms) - m.layer["core.save_ms"] - m.layer["core.load_ms"] -
          Median(update_ms) - Median(f32_build_ms);
    }
  }
  Report(opt, m, result);
  return true;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"recommend_200k_sq8", "rank_kgcn_zipf", "stream_cke_swaps"};
}

bool RunWorkload(const Options& options, RunResult* result,
                 std::string* error) {
  const ScopedCpu generator_cpu(kGeneratorCpu);
  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (ec) {
    *error = "cannot create " + options.scratch_dir + ": " + ec.message();
    return false;
  }
  if (options.workload == "recommend_200k_sq8") {
    return RunRecommend(options, result, error);
  }
  if (options.workload == "rank_kgcn_zipf") {
    return RunRank(options, result, error);
  }
  if (options.workload == "stream_cke_swaps") {
    return RunStream(options, result, error);
  }
  *error = "unknown workload '" + options.workload + "'";
  return false;
}

}  // namespace perfbench
