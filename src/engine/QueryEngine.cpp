//===- engine/QueryEngine.cpp - Batched, memoizing query engine --------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/QueryEngine.h"

#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Trace.h"
#include "tensor/Gemm.h"

#include <algorithm>
#include <cstring>
#include <future>
#include <sstream>
#include <unordered_map>

using namespace oppsla;

namespace {

telemetry::Counter &logicalCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.queries");
  return C;
}
telemetry::Counter &forwardCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.forwards");
  return C;
}
telemetry::Counter &hitCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.cache.hits");
  return C;
}
telemetry::Counter &missCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.cache.misses");
  return C;
}
telemetry::Counter &prefetchCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.prefetch.images");
  return C;
}
telemetry::Histogram &batchSizeHist() {
  static telemetry::Histogram &H = telemetry::histogram(
      "engine.batch.size", telemetry::exponentialBuckets(1.0, 2.0, 12));
  return H;
}

bool sameBytes(const Image &A, const Image &B) {
  return A.height() == B.height() && A.width() == B.width() &&
         std::memcmp(A.raw().data(), B.raw().data(),
                     A.raw().size() * sizeof(float)) == 0;
}

} // namespace

QueryEngine::QueryEngine(Classifier &Inner, QueryEngineConfig Config)
    : Inner(Inner), Config(Config),
      Cache(std::make_shared<ScoreCache>(Config.CacheCapacity)) {
  assert(this->Config.BatchSize >= 1 && "batch size must be positive");
}

QueryEngine::~QueryEngine() = default;

std::vector<float> QueryEngine::scores(const Image &Img) {
  telemetry::ProfileScope Span("engine.query");
  ++Logical;
  logicalCounter().inc();
  std::vector<float> S;
  if (Cache->enabled()) {
    const uint64_t Hash = Img.contentHash();
    if (Cache->lookup(Img, Hash, S)) {
      hitCounter().inc();
      return S;
    }
    missCounter().inc();
    S = Inner.scores(Img);
    ++Physical;
    forwardCounter().inc();
    batchSizeHist().observe(1.0);
    Cache->insert(Img, Hash, S);
    return S;
  }
  S = Inner.scores(Img);
  ++Physical;
  forwardCounter().inc();
  batchSizeHist().observe(1.0);
  return S;
}

std::vector<std::vector<float>> QueryEngine::scoresBatch(
    std::span<const Image> Imgs) {
  telemetry::ProfileScope Span("engine.batch");
  const size_t N = Imgs.size();
  Logical += N;
  logicalCounter().inc(N);
  std::vector<std::vector<float>> Out(N);
  if (N == 0)
    return Out;

  // Partition into cache hits, unique misses, and duplicate misses (the
  // same bytes appearing twice in one submission pay one forward).
  // Each image is hashed once; the inserts below reuse the hashes.
  std::vector<size_t> Unique;
  std::vector<std::pair<size_t, size_t>> Aliases; ///< (dup index, rep index)
  std::unordered_map<uint64_t, std::vector<size_t>> Reps;
  std::vector<uint64_t> Hashes(N);
  uint64_t Hits = 0;
  {
    telemetry::ProfileScope ProbeSpan("engine.cache.probe");
    for (size_t I = 0; I != N; ++I) {
      const uint64_t Hash = Hashes[I] =
          Cache->enabled() ? Imgs[I].contentHash() : 0;
      if (Cache->enabled() && Cache->lookup(Imgs[I], Hash, Out[I])) {
        ++Hits;
        continue;
      }
      bool Aliased = false;
      if (Cache->enabled()) {
        for (size_t Rep : Reps[Hash]) {
          if (sameBytes(Imgs[Rep], Imgs[I])) {
            Aliases.emplace_back(I, Rep);
            Aliased = true;
            break;
          }
        }
        if (!Aliased)
          Reps[Hash].push_back(I);
      }
      if (!Aliased)
        Unique.push_back(I);
    }
  }
  hitCounter().inc(Hits);
  missCounter().inc(N - Hits);

  forwardUnique(Imgs, Unique, Out);
  if (Cache->enabled())
    for (size_t I : Unique)
      Cache->insert(Imgs[I], Hashes[I], Out[I]);
  for (const auto &[Dup, Rep] : Aliases)
    Out[Dup] = Out[Rep];

  if (telemetry::traceEnabled())
    telemetry::traceEvent("engine_batch",
                          {{"kind", "query"},
                           {"images", static_cast<uint64_t>(N)},
                           {"hits", Hits},
                           {"forwards",
                            static_cast<uint64_t>(Unique.size())}});
  return Out;
}

void QueryEngine::prefetch(std::span<const Image> Imgs) {
  // Without a cache there is nowhere to park speculative results.
  if (!Cache->enabled() || Imgs.empty())
    return;
  telemetry::ProfileScope Span("engine.prefetch");

  std::vector<size_t> Unique;
  std::unordered_map<uint64_t, std::vector<size_t>> Reps;
  std::vector<uint64_t> Hashes(Imgs.size()); // reused by the inserts below
  for (size_t I = 0; I != Imgs.size(); ++I) {
    const uint64_t Hash = Hashes[I] = Imgs[I].contentHash();
    if (Cache->contains(Imgs[I], Hash))
      continue;
    bool Aliased = false;
    for (size_t Rep : Reps[Hash])
      if (sameBytes(Imgs[Rep], Imgs[I])) {
        Aliased = true;
        break;
      }
    if (Aliased)
      continue;
    Reps[Hash].push_back(I);
    Unique.push_back(I);
    // Prefetching past the cache capacity would evict this submission's
    // own entries before the attack consumes them.
    if (Unique.size() == Cache->capacity())
      break;
  }
  if (Unique.empty())
    return;

  std::vector<std::vector<float>> Scores(Imgs.size());
  forwardUnique(Imgs, Unique, Scores);
  for (size_t I : Unique)
    Cache->insert(Imgs[I], Hashes[I], std::move(Scores[I]));
  prefetchCounter().inc(Unique.size());

  if (telemetry::traceEnabled())
    telemetry::traceEvent(
        "engine_batch",
        {{"kind", "prefetch"},
         {"images", static_cast<uint64_t>(Imgs.size())},
         {"forwards", static_cast<uint64_t>(Unique.size())}});
}

bool QueryEngine::ensureWorkers() {
  if (Config.Threads <= 1 || WorkersUnavailable)
    return Pool != nullptr;
  if (Pool)
    return true;
  std::vector<std::unique_ptr<Classifier>> Clones;
  for (size_t T = 1; T != Config.Threads; ++T) {
    auto C = Inner.clone();
    if (!C) {
      WorkersUnavailable = true;
      return false;
    }
    Clones.push_back(std::move(C));
  }
  WorkerClones = std::move(Clones);
  Pool = std::make_unique<ThreadPool>(Config.Threads);
  return true;
}

void QueryEngine::forwardUnique(std::span<const Image> Imgs,
                                const std::vector<size_t> &Unique,
                                std::vector<std::vector<float>> &Out) {
  if (Unique.empty())
    return;
  telemetry::ProfileScope Span("engine.forward");
  Physical += Unique.size();
  forwardCounter().inc(Unique.size());

  // Chunk boundaries: [K*BatchSize, (K+1)*BatchSize) over Unique.
  const size_t B = Config.BatchSize;
  const size_t NumChunks = (Unique.size() + B - 1) / B;
  for (size_t K = 0; K != NumChunks; ++K)
    batchSizeHist().observe(static_cast<double>(
        std::min(B, Unique.size() - K * B)));

  auto RunChunk = [&](Classifier &C, size_t K) {
    const size_t Begin = K * B;
    const size_t End = std::min(Begin + B, Unique.size());
    std::vector<Image> Chunk;
    {
      telemetry::ProfileScope AssembleSpan("engine.assemble");
      Chunk.reserve(End - Begin);
      for (size_t I = Begin; I != End; ++I)
        Chunk.push_back(Imgs[Unique[I]]);
    }
    std::vector<std::vector<float>> S =
        C.scoresBatch(std::span<const Image>(Chunk));
    for (size_t I = Begin; I != End; ++I)
      Out[Unique[I]] = std::move(S[I - Begin]);
  };

  if (NumChunks > 1 && ensureWorkers()) {
    // Worker T owns clone T-1 (worker 0 reuses the inner classifier);
    // chunks are assigned round-robin so each classifier instance is used
    // by exactly one task chain at a time. Chunk-level parallelism is the
    // better use of the thread budget here, so each worker pins its GEMM
    // column fan-out to one thread (results are identical either way —
    // the kernels are deterministic at any split).
    const size_t W = Config.Threads;
    // Engine pool threads outlive any one job: hand each task the
    // submitting thread's ambient profile root and trace id so forward
    // spans and trace events attribute to the right job.
    const char *ProfRoot = telemetry::ambientProfileRoot();
    const std::string TraceId = telemetry::traceContextId();
    std::vector<std::future<void>> Futures;
    for (size_t T = 0; T != std::min(W, NumChunks); ++T) {
      Classifier *C = T == 0 ? &Inner : WorkerClones[T - 1].get();
      Futures.push_back(Pool->submit([&, C, T] {
        telemetry::ProfileTaskScope Task(ProfRoot);
        telemetry::TraceContextScope Trace(TraceId);
        kernels::ScopedColumnThreads Pin(1);
        for (size_t K = T; K < NumChunks; K += W)
          RunChunk(*C, K);
      }));
    }
    for (auto &F : Futures)
      F.get();
    return;
  }

  // Single chunk (or no workers): donate the engine's thread budget to
  // the GEMM column dimension instead.
  kernels::ScopedColumnThreads Donate(Config.Threads);
  for (size_t K = 0; K != NumChunks; ++K)
    RunChunk(Inner, K);
}

std::unique_ptr<Classifier> QueryEngine::clone() const {
  auto InnerClone = Inner.clone();
  if (!InnerClone)
    return nullptr;
  auto Out = std::make_unique<QueryEngine>(*InnerClone, Config);
  Out->OwnedInner = std::move(InnerClone);
  if (Config.ShareCacheOnClone)
    Out->Cache = Cache; // thread-safe, byte-verified: results unchanged
  return Out;
}

std::string oppsla::engineMetricsSummary() {
  const uint64_t Queries = logicalCounter().value();
  if (Queries == 0)
    return "";
  const uint64_t Forwards = forwardCounter().value();
  const uint64_t Hits = hitCounter().value();
  const uint64_t Misses = missCounter().value();
  std::ostringstream S;
  S << "engine: " << Queries << " logical queries, " << Forwards
    << " physical forwards";
  if (Hits + Misses != 0) {
    S.precision(1);
    S << ", cache hit rate " << std::fixed
      << 100.0 * static_cast<double>(Hits) /
             static_cast<double>(Hits + Misses)
      << "%";
  }
  const telemetry::Histogram &H = batchSizeHist();
  if (H.count() != 0) {
    S.precision(1);
    S << ", avg physical batch " << std::fixed << H.mean();
  }
  return S.str();
}

std::map<std::string, double> oppsla::engineLedgerMetrics() {
  std::map<std::string, double> M;
  const uint64_t Queries = logicalCounter().value();
  if (Queries == 0)
    return M;
  const uint64_t Forwards = forwardCounter().value();
  const uint64_t Hits = hitCounter().value();
  const uint64_t Misses = missCounter().value();
  M["engine.queries.logical"] = static_cast<double>(Queries);
  M["engine.forwards.physical"] = static_cast<double>(Forwards);
  M["engine.forwards_per_query"] =
      static_cast<double>(Forwards) / static_cast<double>(Queries);
  M["engine.cache.hits"] = static_cast<double>(Hits);
  M["engine.cache.misses"] = static_cast<double>(Misses);
  if (Hits + Misses != 0)
    M["engine.cache.hit_rate"] = static_cast<double>(Hits) /
                                 static_cast<double>(Hits + Misses);
  M["engine.prefetch.images"] =
      static_cast<double>(prefetchCounter().value());
  const telemetry::Histogram &H = batchSizeHist();
  if (H.count() != 0)
    M["engine.batch.mean"] = H.mean();
  return M;
}
