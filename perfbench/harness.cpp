//===- perfbench/harness.cpp - In-process workloads of the benchmark ------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline half of the end-to-end benchmark (perfbench/README.md). It
/// times calls into the public functions `oppsla eval` calls, in the same
/// order and with the same engine defaults, and writes raw measurements as
/// one JSON object; perfbench/run.py turns them into metrics and checks
/// them against the committed references.
///
///   perfbench_harness prepare
///   perfbench_harness fig3  --seed S --seconds T --trace 0|1 --out F
///                           [--setup-only 1]
///   perfbench_harness synth --seed S --seconds T --trace 0|1 --out F
///                           --store DIR [--setup-only 1]
///   perfbench_harness serve-ref --out F
///   perfbench_harness probe --out F
///
/// With --trace 1 the workload runs its timed phase once untraced and once
/// traced. The traced pass puts two benchmark-owned Classifier decorators
/// at the attack->QueryEngine and QueryEngine->NNClassifier boundaries;
/// they keep spans in memory and write them to <out>.spans.tsv at exit.
///
//===----------------------------------------------------------------------===//

#include "attacks/SparseRS.h"
#include "attacks/SuOPA.h"
#include "engine/QueryEngine.h"
#include "eval/Evaluation.h"
#include "eval/Experiments.h"
#include "eval/ProgramStore.h"
#include "serve/JobQueue.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "wire/Wire.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

using namespace oppsla;

namespace {

//===----------------------------------------------------------------------===//
// Workload constants (README.md "Workloads")
//===----------------------------------------------------------------------===//

constexpr size_t SweepThreads = 4;
constexpr size_t SynthIslands = 4;
/// Below the small scale's SynthIters (20), so islands do exchange elites.
constexpr size_t SynthExchangeInterval = 8;
/// Two of the four classes: all four take ~50 s, beyond a run's length.
constexpr size_t SynthClasses[] = {0, 1};
constexpr uint64_t ServeBudget = 1024;
constexpr size_t ServeSliceImages = 2;
constexpr int SetupRepeats = 30;
/// Host-speed probes per `probe` command; serve-open runs it before and
/// after its open loop.
constexpr int ProbeRepeats = 3;

const BenchScale &scale() {
  static const BenchScale S = BenchScale::preset("small");
  return S;
}

const char *const SweepAttacks[] = {"oppsla", "sparse-rs", "suopa"};
const char *const ServeAttacks[] = {"sparse-rs", "suopa"};

//===----------------------------------------------------------------------===//
// Clocks, resource usage, JSON output
//===----------------------------------------------------------------------===//

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double nowS() { return static_cast<double>(nowNs()) * 1e-9; }

struct Usage {
  double CpuS = 0.0; ///< user + system seconds, all threads
  double MaxRssMb = 0.0;
};

//===----------------------------------------------------------------------===//
// Host-speed probe
//===----------------------------------------------------------------------===//

/// One chunk of the probe: xorshift steps and lookups into a 256 KiB
/// table, fixed work that needs nothing of the program under test.
uint64_t probeChunk(const std::vector<uint32_t> &Table) {
  uint64_t X = 88172645463325252ULL, Acc = 0;
  for (size_t I = 0; I != 1500000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Acc += Table[(X ^ Acc) & 0xffff];
    if (Acc & 1)
      Acc ^= X >> 3;
  }
  return Acc;
}

double threadCpuS() {
  timespec T = {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// How fast the host's cores run at this moment: the CPU time that
/// SweepThreads threads spend on 64 probe chunks, pulled the way a sweep's
/// workers pull images, per thread. It runs before every timed unit, while
/// the program is idle (README.md, "Steadiness and bounds").
double hostProbe() {
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(1 << 16);
    uint64_t X = 0x9e3779b97f4a7c15ULL;
    for (uint32_t &V : T) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      V = static_cast<uint32_t>(X >> 32);
    }
    return T;
  }();
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Sink{0};
  std::vector<double> Cpu(SweepThreads, 0.0);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != SweepThreads; ++T)
    Threads.emplace_back([&, T] {
      const double C0 = threadCpuS();
      while (Next.fetch_add(1) < 64)
        Sink += probeChunk(Table);
      Cpu[T] = threadCpuS() - C0;
    });
  for (std::thread &T : Threads)
    T.join();
  double Total = 0.0;
  for (double C : Cpu)
    Total += C;
  return Total / static_cast<double>(SweepThreads);
}

Usage usage() {
  rusage R = {};
  getrusage(RUSAGE_SELF, &R);
  Usage U;
  U.CpuS = static_cast<double>(R.ru_utime.tv_sec + R.ru_stime.tv_sec) +
           static_cast<double>(R.ru_utime.tv_usec + R.ru_stime.tv_usec) *
               1e-6;
  U.MaxRssMb = static_cast<double>(R.ru_maxrss) / 1024.0;
  return U;
}

/// Minimal JSON object writer: keys in insertion order, numbers printed
/// with full precision.
class JsonObj {
public:
  JsonObj &num(const std::string &K, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return raw(K, Buf);
  }
  JsonObj &str(const std::string &K, const std::string &V) {
    std::string Out = "\"";
    telemetry::appendJsonEscaped(Out, V);
    return raw(K, Out + "\"");
  }
  JsonObj &raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ",") + ("\"" + K + "\":") + V;
    return *this;
  }
  std::string text() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

std::string jsonArray(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I != Items.size(); ++I)
    Out += (I ? "," : "") + Items[I];
  return Out + "]";
}

/// Identity of an image's pixels for the prefetch-usefulness ratio: a
/// word-at-a-time multiply-xor hash, cheaper than Image::contentHash so
/// that tracing perturbs the traced run less.
uint64_t pixelKey(const Image &Img) {
  const std::vector<float> &Px = Img.raw();
  uint64_t H = 0x9e3779b97f4a7c15ULL ^ Px.size();
  size_t I = 0;
  for (; I + 2 <= Px.size(); I += 2) {
    uint64_t W;
    std::memcpy(&W, &Px[I], sizeof(W));
    H = (H ^ W) * 0xff51afd7ed558ccdULL;
    H ^= H >> 29;
  }
  if (I < Px.size()) {
    uint32_t W;
    std::memcpy(&W, &Px[I], sizeof(W));
    H = (H ^ W) * 0xff51afd7ed558ccdULL;
  }
  return H ^ (H >> 32);
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Boundary tracing
//===----------------------------------------------------------------------===//

enum class SpanKind : uint32_t { Query, Batch, Prefetch, Forward };
const char *spanName(SpanKind K) {
  switch (K) {
  case SpanKind::Query:
    return "engine.scores";
  case SpanKind::Batch:
    return "engine.scoresBatch";
  case SpanKind::Prefetch:
    return "engine.prefetch";
  case SpanKind::Forward:
    return "classify.forward";
  }
  return "?";
}

struct Span {
  uint64_t Start = 0, End = 0;
  uint64_t Parent = 0; ///< (lane << 32 | index + 1) of the enclosing span
  uint32_t Images = 0;
  SpanKind Kind = SpanKind::Query;
};

/// Everything one decorator instance (one sweep worker, or one island's
/// engine clone) recorded. Only its own thread writes it.
struct Lane {
  uint32_t Id = 0;
  uint32_t Run = 0;
  std::vector<Span> Spans;
  uint64_t First = UINT64_MAX, Last = 0; ///< busy interval (outer lanes)
  uint64_t OuterNs = 0, InnerNs = 0, TraceNs = 0;
  uint64_t Logical = 0;      ///< images asked for by the attack
  uint64_t MissForwards = 0; ///< forwarded inside scores/scoresBatch
  uint64_t ForwardCalls = 0;
  uint64_t ForwardImages = 0;
  std::unordered_set<uint64_t> Queried;
  std::vector<uint64_t> Forwarded;
};

class Recorder {
public:
  Lane *newLane() {
    std::lock_guard<std::mutex> Lock(Mu);
    Lanes.push_back(std::make_unique<Lane>());
    Lanes.back()->Id = static_cast<uint32_t>(Lanes.size());
    Lanes.back()->Run = Run;
    return Lanes.back().get();
  }
  void setRun(uint32_t R) {
    std::lock_guard<std::mutex> Lock(Mu);
    Run = R;
  }
  std::vector<Lane *> lanesOf(uint32_t R) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::vector<Lane *> Out;
    for (auto &L : Lanes)
      if (L->Run == R)
        Out.push_back(L.get());
    return Out;
  }
  /// Writes every span as `name start_ns end_ns id parent run images`.
  bool writeTsv(const std::string &Path) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "name\tstart_ns\tend_ns\tid\tparent\trun\timages\n");
    for (auto &L : Lanes)
      for (size_t I = 0; I != L->Spans.size(); ++I) {
        const Span &S = L->Spans[I];
        std::fprintf(F, "%s\t%llu\t%llu\t%llu\t%llu\t%u\t%u\n",
                     spanName(S.Kind),
                     static_cast<unsigned long long>(S.Start),
                     static_cast<unsigned long long>(S.End),
                     static_cast<unsigned long long>(
                         (static_cast<uint64_t>(L->Id) << 32) | (I + 1)),
                     static_cast<unsigned long long>(S.Parent), L->Run,
                     S.Images);
      }
    return std::fclose(F) == 0;
  }

private:
  std::mutex Mu;
  std::vector<std::unique_ptr<Lane>> Lanes;
  uint32_t Run = 0;
};

Recorder &recorder() {
  static Recorder R;
  return R;
}

/// The outer span open on this thread, if any: inner forwards nest under it.
thread_local Lane *ActiveLane = nullptr;
thread_local uint64_t ActiveSpan = 0;
thread_local SpanKind ActiveKind = SpanKind::Query;
thread_local uint64_t NestedTraceNs = 0;

/// A Classifier decorator at one layer boundary. `Outer` sits between the
/// attack and the QueryEngine; inner ones between the engine and the
/// network. clone() clones the wrapped classifier and wraps the clone, so
/// parallel sweeps and islands fan out exactly as without tracing.
class Boundary : public Classifier {
public:
  Boundary(bool Outer, Classifier &Inner)
      : Outer(Outer), Inner(Inner), L(recorder().newLane()) {}
  Boundary(bool Outer, std::unique_ptr<Classifier> Owned)
      : Outer(Outer), Inner(*Owned), Owned(std::move(Owned)),
        L(recorder().newLane()) {}

  std::vector<float> scores(const Image &Img) override {
    std::vector<float> R;
    call(SpanKind::Query, std::span<const Image>(&Img, 1),
         [&] { R = Inner.scores(Img); });
    return R;
  }
  std::vector<std::vector<float>> scoresBatch(
      std::span<const Image> Imgs) override {
    std::vector<std::vector<float>> R;
    call(SpanKind::Batch, Imgs, [&] { R = Inner.scoresBatch(Imgs); });
    return R;
  }
  void prefetch(std::span<const Image> Imgs) override {
    if (!Outer)
      return Inner.prefetch(Imgs);
    call(SpanKind::Prefetch, Imgs, [&] { Inner.prefetch(Imgs); });
  }
  bool prefetchable() const override { return Inner.prefetchable(); }
  size_t numClasses() const override { return Inner.numClasses(); }
  std::unique_ptr<Classifier> clone() const override {
    std::unique_ptr<Classifier> C = Inner.clone();
    if (!C)
      return nullptr;
    return std::make_unique<Boundary>(Outer, std::move(C));
  }

private:
  /// Runs \p Body as one span. Storing spans and hashing images for the
  /// prefetch ratio are tracing's own work: they are timed (TraceNs) and
  /// taken out of the enclosing outer span, so they land in no layer's
  /// self time.
  template <typename Fn>
  void call(SpanKind Kind, std::span<const Image> Imgs, Fn &&Body) {
    const uint64_t Start = nowNs();
    const uint64_t Id =
        (static_cast<uint64_t>(L->Id) << 32) | (L->Spans.size() + 1);
    L->Spans.push_back(Span());
    const size_t Slot = L->Spans.size() - 1;
    if (Outer) {
      if (Kind != SpanKind::Prefetch)
        for (const Image &Img : Imgs) {
          ++L->Logical;
          L->Queried.insert(pixelKey(Img));
        }
      ActiveLane = L;
      ActiveSpan = Id;
      ActiveKind = Kind;
      NestedTraceNs = 0;
    }
    const uint64_t BodyStart = nowNs();
    if (!Outer && ActiveLane)
      NestedTraceNs += BodyStart - Start;
    Body();
    const uint64_t End = nowNs();
    Span &S = L->Spans[Slot];
    S.Start = Outer ? Start : BodyStart;
    S.End = End;
    S.Images = static_cast<uint32_t>(Imgs.size());
    if (Outer) {
      S.Kind = Kind;
      const uint64_t Own = (BodyStart - Start) + NestedTraceNs;
      L->TraceNs += Own;
      L->OuterNs += (End - Start) - Own;
      L->First = std::min(L->First, Start);
      L->Last = std::max(L->Last, End);
      ActiveLane = nullptr;
      ActiveSpan = 0;
      return;
    }
    S.Kind = SpanKind::Forward;
    S.Parent = ActiveSpan;
    L->InnerNs += End - BodyStart;
    ++L->ForwardCalls;
    L->ForwardImages += Imgs.size();
    if (Lane *P = ActiveLane) {
      if (ActiveKind != SpanKind::Prefetch)
        P->MissForwards += Imgs.size();
      for (const Image &Img : Imgs)
        P->Forwarded.push_back(pixelKey(Img));
      NestedTraceNs += nowNs() - End;
    }
  }

  bool Outer;
  Classifier &Inner;
  std::unique_ptr<Classifier> Owned;
  Lane *L;
};

/// The engine->network boundary for synthesis: synthesizeClassProgram
/// takes the concrete NNClassifier, so the decorator is one. Its own
/// (empty) model is never run; every call goes to the wrapped victim.
class TracedVictim : public NNClassifier {
public:
  explicit TracedVictim(NNClassifier &Victim)
      : NNClassifier(std::make_unique<Sequential>(), Victim.numClasses(),
                     Victim.name()),
        Wrapped(false, Victim) {}
  std::vector<float> scores(const Image &Img) override {
    return Wrapped.scores(Img);
  }
  std::vector<std::vector<float>> scoresBatch(
      std::span<const Image> Imgs) override {
    return Wrapped.scoresBatch(Imgs);
  }
  std::unique_ptr<Classifier> clone() const override {
    return Wrapped.clone();
  }

private:
  Boundary Wrapped;
};

/// Per-layer totals of one traced run id.
struct LayerTotals {
  double BusyS = 0, OuterS = 0, InnerS = 0, TraceS = 0;
  /// classify.forward time summed from the spans themselves rather than
  /// from the lanes' running totals; the two must agree.
  double InnerSpanS = 0;
  uint64_t Logical = 0, MissForwards = 0, ForwardCalls = 0,
           ForwardImages = 0, UsefulForwards = 0;
  /// Forward spans outside the outer span they name as parent, and outer
  /// spans whose forwards add up to more than their own length.
  uint64_t NestingErrors = 0;
  uint64_t OrphanForwards = 0; ///< forwards with no outer span open
};

/// Checks that every forward span lies inside its parent and that no
/// parent holds more forward time than its own length.
void checkNesting(const std::vector<Lane *> &Lanes, LayerTotals &T) {
  std::map<uint32_t, const Lane *> ById;
  for (const Lane *L : Lanes)
    ById[L->Id] = L;
  std::map<uint64_t, uint64_t> ChildNs; // parent id -> nested forward ns
  for (const Lane *L : Lanes)
    for (const Span &S : L->Spans) {
      if (S.Kind != SpanKind::Forward)
        continue;
      T.InnerSpanS += static_cast<double>(S.End - S.Start) * 1e-9;
      if (!S.Parent) {
        ++T.OrphanForwards;
        continue;
      }
      auto It = ById.find(static_cast<uint32_t>(S.Parent >> 32));
      const size_t Index = (S.Parent & 0xffffffffULL) - 1;
      if (It == ById.end() || Index >= It->second->Spans.size()) {
        ++T.NestingErrors;
        continue;
      }
      const Span &P = It->second->Spans[Index];
      if (P.Kind == SpanKind::Forward || S.Start < P.Start || S.End > P.End)
        ++T.NestingErrors;
      ChildNs[S.Parent] += S.End - S.Start;
    }
  for (const auto &[Id, Ns] : ChildNs) {
    const Span &P = ById[static_cast<uint32_t>(Id >> 32)]
                        ->Spans[(Id & 0xffffffffULL) - 1];
    if (Ns > P.End - P.Start)
      ++T.NestingErrors;
  }
}

LayerTotals totalsOf(uint32_t Run) {
  LayerTotals T;
  const std::vector<Lane *> Lanes = recorder().lanesOf(Run);
  checkNesting(Lanes, T);
  for (Lane *L : Lanes) {
    if (L->Last > L->First)
      T.BusyS += static_cast<double>(L->Last - L->First) * 1e-9;
    T.OuterS += static_cast<double>(L->OuterNs) * 1e-9;
    T.InnerS += static_cast<double>(L->InnerNs) * 1e-9;
    T.TraceS += static_cast<double>(L->TraceNs) * 1e-9;
    T.Logical += L->Logical;
    T.MissForwards += L->MissForwards;
    T.ForwardCalls += L->ForwardCalls;
    T.ForwardImages += L->ForwardImages;
    for (uint64_t H : L->Forwarded)
      T.UsefulForwards += L->Queried.count(H);
  }
  return T;
}

std::string totalsJson(const LayerTotals &T) {
  return JsonObj()
      .num("busy_s", T.BusyS)
      .num("outer_s", T.OuterS)
      .num("inner_s", T.InnerS)
      .num("trace_s", T.TraceS)
      .num("inner_span_s", T.InnerSpanS)
      .num("logical", static_cast<double>(T.Logical))
      .num("miss_forwards", static_cast<double>(T.MissForwards))
      .num("forward_calls", static_cast<double>(T.ForwardCalls))
      .num("forward_images", static_cast<double>(T.ForwardImages))
      .num("useful_forwards", static_cast<double>(T.UsefulForwards))
      .num("nesting_errors", static_cast<double>(T.NestingErrors))
      .num("orphan_forwards", static_cast<double>(T.OrphanForwards))
      .text();
}

//===----------------------------------------------------------------------===//
// Shared pieces
//===----------------------------------------------------------------------===//

struct Args {
  std::map<std::string, std::string> KV;
  std::string get(const std::string &K, const std::string &D = "") const {
    auto It = KV.find(K);
    return It == KV.end() ? D : It->second;
  }
  uint64_t num(const std::string &K, uint64_t D) const {
    const std::string V = get(K);
    return V.empty() ? D : std::stoull(V);
  }
};

/// Deterministic Fisher-Yates permutation of 0..N-1 from \p Seed.
std::vector<size_t> permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I != N; ++I)
    P[I] = I;
  SplitMix64 G(Seed ^ 0x70657266626e6368ULL);
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[G.next() % I]);
  return P;
}

std::string runsDigestAndCounts(const std::vector<AttackRunLog> &Logs,
                                const std::vector<size_t> &Order) {
  // Un-permute so the digest covers image index order, whatever the seed.
  std::vector<const AttackRunLog *> ByIndex(Logs.size());
  for (size_t K = 0; K != Logs.size(); ++K)
    ByIndex[Order[K]] = &Logs[K];
  std::string Canon;
  uint64_t Success = 0, Failure = 0, Discarded = 0, Queries = 0;
  for (const AttackRunLog *L : ByIndex) {
    Canon += std::to_string(L->Label) + "," + std::to_string(L->Discarded) +
             "," + std::to_string(L->Success) + "," +
             std::to_string(L->Queries) + ";";
    Queries += L->Queries;
    if (L->Discarded)
      ++Discarded;
    else if (L->Success)
      ++Success;
    else
      ++Failure;
  }
  return JsonObj()
      .num("success", static_cast<double>(Success))
      .num("failure", static_cast<double>(Failure))
      .num("discarded", static_cast<double>(Discarded))
      .num("queries", static_cast<double>(Queries))
      .num("images", static_cast<double>(Logs.size()))
      .str("digest", hex64(fnv1a(Canon)))
      .text();
}

uint64_t counterValue(const std::string &Name) {
  for (const auto &[N, V] :
       telemetry::MetricsRegistry::instance().counterValues())
    if (N == Name)
      return V;
  return 0;
}

std::string usageJson(const Usage &Before, const Usage &After, double Wall) {
  return JsonObj()
      .num("wall_s", Wall)
      .num("cpu_s", After.CpuS - Before.CpuS)
      .num("max_rss_mb", After.MaxRssMb)
      .text();
}

/// Runs a workload's \p Units in rotation, each at least once, until
/// \p Seconds have passed. run.py makes one virtual rotation out of each
/// unit's median time, so the rotation a run ends inside does not change
/// the mix of work.
template <typename Fn>
void timedRotation(double Seconds, size_t Units, Fn &&Unit) {
  const double Start = nowS();
  for (size_t I = 0; I < Units || nowS() - Start < Seconds; ++I)
    Unit(I % Units);
}

/// `--setup-only 1`: the run stops after set-up. run.py starts several
/// such processes, because set-up time differs more between processes than
/// between repeats in one.
int writeSetupOnly(const std::string &Out,
                   const std::vector<std::string> &Setups) {
  std::ofstream OS(Out);
  OS << JsonObj().raw("setups", jsonArray(Setups)).text() << "\n";
  return OS ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// prepare: victims + the warm program store (untimed)
//===----------------------------------------------------------------------===//

SynthesisRunOptions sweepSynthOptions() {
  // `oppsla eval --threads 4` with every synthesis flag at its default.
  SynthesisRunOptions Opts;
  Opts.Threads = SweepThreads;
  return Opts;
}

int cmdPrepare() {
  makeScaledVictim(TaskKind::CifarLike, Arch::MiniResNet, scale());
  auto Victim = makeScaledVictim(TaskKind::CifarLike, Arch::MiniVGG, scale());
  synthesizeClassPrograms(*Victim,
                          victimStem(TaskKind::CifarLike, Arch::MiniVGG,
                                     scale()),
                          TaskKind::CifarLike, scale(), 1,
                          sweepSynthOptions());
  return 0;
}

//===----------------------------------------------------------------------===//
// fig3: the Figure-3 sweep
//===----------------------------------------------------------------------===//

struct SweepSetup {
  std::unique_ptr<NNClassifier> Victim;
  Dataset Test;
  std::vector<Program> Programs;
};

std::string setupSweep(SweepSetup &S) {
  const double T0 = nowS();
  S.Victim = makeScaledVictim(TaskKind::CifarLike, Arch::MiniVGG, scale());
  const double T1 = nowS();
  S.Test = makeTestSet(TaskKind::CifarLike, scale());
  const double T2 = nowS();
  S.Programs = synthesizeClassPrograms(
      *S.Victim, victimStem(TaskKind::CifarLike, Arch::MiniVGG, scale()),
      TaskKind::CifarLike, scale(), 1, sweepSynthOptions());
  const double T3 = nowS();
  return JsonObj()
      .num("total_s", T3 - T0)
      .num("victim_load_s", T1 - T0)
      .num("testset_s", T2 - T1)
      .num("rehydrate_s", T3 - T2)
      .text();
}

std::vector<AttackRunLog> sweepOnce(const std::string &Attack,
                                    const SweepSetup &S, Classifier &Cls,
                                    const Dataset &Test) {
  const uint64_t Budget = scale().EvalQueryCap;
  if (Attack == "oppsla")
    return runProgramsOverSet(S.Programs, Cls, Test, Budget, SweepThreads);
  if (Attack == "sparse-rs") {
    SparseRS A;
    return runAttackOverSet(A, Cls, Test, Budget, SweepThreads);
  }
  SuOPA A;
  return runAttackOverSet(A, Cls, Test, Budget, SweepThreads);
}

int cmdFig3(const Args &A) {
  const uint64_t Seed = A.num("seed", 1);
  const double Seconds = static_cast<double>(A.num("seconds", 10));
  const bool Trace = A.num("trace", 0) != 0;

  std::vector<std::string> Setups;
  SweepSetup S;
  const Usage U0 = usage();
  const double W0 = nowS();
  for (int R = 0; R != SetupRepeats; ++R)
    Setups.push_back(setupSweep(S));
  const std::string SetupUsage = usageJson(U0, usage(), nowS() - W0);
  if (A.num("setup-only", 0))
    return writeSetupOnly(A.get("out"), Setups);

  // The seed orders the test set; per-run RNG isolation makes each
  // image's outcome independent of its position, so the work is the same
  // for every seed and only the schedule across workers moves.
  const std::vector<size_t> Order = permutation(S.Test.size(), Seed);
  Dataset Test;
  Test.NumClasses = S.Test.NumClasses;
  for (size_t I : Order) {
    Test.Images.push_back(S.Test.Images[I]);
    Test.Labels.push_back(S.Test.Labels[I]);
  }

  // Rotations through the attacks; a traced run does one untraced and one
  // traced rotation instead.
  std::vector<std::string> Sweeps;
  uint32_t RunId = 0;
  auto Sweep = [&](const std::string &Attack, bool Traced) {
    const double Probe = hostProbe();
    const Usage B = usage();
    const double T0 = nowS();
    std::vector<AttackRunLog> Logs;
    std::string Layers = "null";
    if (!Traced) {
      QueryEngine Engine(*S.Victim);
      Logs = sweepOnce(Attack, S, Engine, Test);
    } else {
      recorder().setRun(++RunId);
      Boundary Network(false, *S.Victim);
      QueryEngine Engine(Network);
      Boundary Front(true, Engine);
      Logs = sweepOnce(Attack, S, Front, Test);
    }
    const double Wall = nowS() - T0;
    const Usage E = usage();
    if (Traced)
      Layers = totalsJson(totalsOf(RunId));
    Sweeps.push_back(JsonObj()
                         .str("attack", Attack)
                         .num("traced", Traced)
                         .num("probe_s", Probe)
                         .raw("usage", usageJson(B, E, Wall))
                         .raw("result", runsDigestAndCounts(Logs, Order))
                         .raw("layers", Layers)
                         .text());
  };

  // One untimed sweep first: the first sweep after set-up runs slower.
  {
    QueryEngine Engine(*S.Victim);
    sweepOnce(SweepAttacks[1], S, Engine, Test);
  }
  if (Trace) {
    for (bool Traced : {false, true})
      for (const char *Attack : SweepAttacks)
        Sweep(Attack, Traced);
  } else {
    timedRotation(Seconds, std::size(SweepAttacks),
                  [&](size_t I) { Sweep(SweepAttacks[I], false); });
  }

  const std::string Out = A.get("out");
  std::ofstream OS(Out);
  OS << JsonObj()
            .str("workload", "fig3-sweep")
            .num("seed", static_cast<double>(Seed))
            .raw("setups", jsonArray(Setups))
            .raw("setup_usage", SetupUsage)
            .raw("sweeps", jsonArray(Sweeps))
            .num("max_rss_mb", usage().MaxRssMb)
            .text()
     << "\n";
  if (Trace && !recorder().writeTsv(Out + ".spans.tsv"))
    return 1;
  return OS ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// synth: cold island synthesis
//===----------------------------------------------------------------------===//

int cmdSynth(const Args &A) {
  const uint64_t Seed = A.num("seed", 1);
  const double Seconds = static_cast<double>(A.num("seconds", 10));
  const bool Trace = A.num("trace", 0) != 0;
  const std::string StoreRoot = A.get("store");
  if (StoreRoot.empty()) {
    std::cerr << "synth: --store is required\n";
    return 2;
  }

  std::vector<std::string> Setups;
  std::unique_ptr<NNClassifier> Victim;
  const Usage U0 = usage();
  const double W0 = nowS();
  for (int R = 0; R != SetupRepeats; ++R) {
    const double T0 = nowS();
    Victim = makeScaledVictim(TaskKind::CifarLike, Arch::MiniVGG, scale());
    const double T1 = nowS();
    Setups.push_back(JsonObj()
                         .num("total_s", T1 - T0)
                         .num("victim_load_s", T1 - T0)
                         .text());
  }
  const std::string SetupUsage = usageJson(U0, usage(), nowS() - W0);
  if (A.num("setup-only", 0))
    return writeSetupOnly(A.get("out"), Setups);
  const std::string Stem =
      victimStem(TaskKind::CifarLike, Arch::MiniVGG, scale());

  SynthesisRunOptions Opts;
  Opts.Threads = SweepThreads;
  Opts.Islands = SynthIslands;
  Opts.ExchangeInterval = SynthExchangeInterval;
  Opts.StoreRoot = StoreRoot;

  // The seed orders the classes; each class is synthesized with the
  // default synthesis seed, so every seed does the same MH work.
  const std::vector<size_t> Order = permutation(std::size(SynthClasses), Seed);
  std::vector<std::string> Reps;
  uint32_t RunId = 0;
  auto Rep = [&](size_t Label, bool Traced) {
    std::error_code EC;
    std::filesystem::remove_all(StoreRoot, EC);
    const uint64_t Q0 = counterValue("synth.queries");
    const uint64_t I0 = counterValue("synth.iterations");
    const uint64_t X0 = counterValue("synth.exchanges");
    const uint64_t H0 = counterValue("engine.cache.hits");
    const uint64_t M0 = counterValue("engine.cache.misses");
    const Dataset Train =
        makeSynthesisSet(TaskKind::CifarLike, Label, scale(), 1);
    const double Probe = hostProbe();
    const Usage B = usage();
    const double T0 = nowS();
    Program P;
    std::string Layers = "null";
    if (!Traced) {
      P = synthesizeClassProgram(*Victim, Stem, TaskKind::CifarLike,
                                 scale(), Label, 1, Opts);
    } else {
      recorder().setRun(++RunId);
      TracedVictim Network(*Victim);
      P = synthesizeClassProgram(Network, Stem, TaskKind::CifarLike,
                                 scale(), Label, 1, Opts);
    }
    const double Wall = nowS() - T0;
    const Usage E = usage();
    if (Traced)
      Layers = totalsJson(totalsOf(RunId));
    auto Delta = [](const char *Name, uint64_t Before) {
      return static_cast<double>(counterValue(Name) - Before);
    };
    JsonObj Out;
    Out.num("class", static_cast<double>(Label))
        .num("traced", Traced)
        .num("probe_s", Probe)
        .raw("usage", usageJson(B, E, Wall))
        .str("program", programToStoreText(P))
        .num("queries", Delta("synth.queries", Q0))
        .num("candidates", Delta("synth.iterations", I0))
        .num("exchanges", Delta("synth.exchanges", X0))
        .num("cache_hits", Delta("engine.cache.hits", H0))
        .num("cache_misses", Delta("engine.cache.misses", M0))
        .raw("layers", Layers);
    // The returned program's avgQueries on its training set (untimed).
    Out.num("avg_queries", evaluateProgram(P, *Victim, Train,
                                           scale().SynthQueryCap,
                                           SweepThreads)
                               .AvgQueries)
        .num("train_images", static_cast<double>(Train.size()));
    Reps.push_back(Out.text());
  };

  if (Trace) {
    for (bool Traced : {false, true})
      for (size_t K : Order)
        Rep(SynthClasses[K], Traced);
  } else {
    timedRotation(Seconds, Order.size(),
                  [&](size_t I) { Rep(SynthClasses[Order[I]], false); });
  }
  std::error_code EC;
  std::filesystem::remove_all(StoreRoot, EC);

  const std::string Out = A.get("out");
  std::ofstream OS(Out);
  OS << JsonObj()
            .str("workload", "synth-cold")
            .num("seed", static_cast<double>(Seed))
            .raw("setups", jsonArray(Setups))
            .raw("setup_usage", SetupUsage)
            .raw("reps", jsonArray(Reps))
            .num("max_rss_mb", usage().MaxRssMb)
            .text()
     << "\n";
  if (Trace && !recorder().writeTsv(Out + ".spans.tsv"))
    return 1;
  return OS ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// serve-ref: every serve-open job run offline
//===----------------------------------------------------------------------===//

/// The POST /v1/jobs body the open-loop client sends for one job.
std::string serveJobBody(const std::string &Attack, size_t Begin) {
  return "{\"kind\":\"attack\",\"attack\":\"" + Attack +
         "\",\"victim\":{\"task\":\"cifar\",\"arch\":\"resnet\","
         "\"scale\":\"small\"},\"seed\":1,\"budget\":" +
         std::to_string(ServeBudget) + ",\"slice\":{\"begin\":" +
         std::to_string(Begin) + ",\"count\":" +
         std::to_string(ServeSliceImages) + "}}";
}

int cmdServeRef(const Args &A) {
  auto Victim =
      makeScaledVictim(TaskKind::CifarLike, Arch::MiniResNet, scale());
  const Dataset Test = makeTestSet(TaskKind::CifarLike, scale());
  QueryEngine Engine(*Victim);
  std::vector<std::string> Jobs;
  for (const char *Name : ServeAttacks)
    for (size_t Begin = 0; Begin + ServeSliceImages <= Test.size();
         Begin += ServeSliceImages) {
      const std::string Body = serveJobBody(Name, Begin);
      serve::JobSpec Spec;
      std::string Error;
      if (!serve::parseJobSpec(Body, Spec, Error)) {
        std::cerr << "serve-ref: " << Error << "\n";
        return 1;
      }
      Dataset Slice;
      Slice.NumClasses = Test.NumClasses;
      for (size_t I = Begin; I != Begin + ServeSliceImages; ++I) {
        Slice.Images.push_back(Test.Images[I]);
        Slice.Labels.push_back(Test.Labels[I]);
      }
      std::unique_ptr<Attack> Atk;
      if (std::string(Name) == "sparse-rs")
        Atk = std::make_unique<SparseRS>();
      else
        Atk = std::make_unique<SuOPA>();
      const std::vector<AttackRunLog> Logs =
          runAttackOverSet(*Atk, Engine, Slice, ServeBudget, 1);
      // The artifact JobRunner renders for a finished attack job.
      wire::WireBuilder B;
      B.addJobSpecJson(serve::jobSpecJson(Spec));
      for (size_t K = 0; K != Logs.size(); ++K) {
        wire::WireRun R;
        R.Index = static_cast<uint32_t>(Begin + K);
        R.Label = static_cast<uint32_t>(Logs[K].Label);
        R.Outcome = Logs[K].Discarded ? 2 : Logs[K].Success ? 1 : 0;
        R.Queries = Logs[K].Queries;
        B.addRun(R);
      }
      uint64_t Queries = 0;
      for (const AttackRunLog &L : Logs)
        Queries += L.Queries;
      const std::string Bytes = B.finish();
      std::string Hex;
      for (unsigned char C : Bytes) {
        char Buf[3];
        std::snprintf(Buf, sizeof(Buf), "%02x", C);
        Hex += Buf;
      }
      Jobs.push_back(JsonObj()
                         .str("attack", Name)
                         .num("begin", static_cast<double>(Begin))
                         .str("body", Body)
                         .num("queries", static_cast<double>(Queries))
                         .str("artifact_hex", Hex)
                         .text());
    }
  std::ofstream OS(A.get("out"));
  OS << JsonObj().raw("jobs", jsonArray(Jobs)).text() << "\n";
  return OS ? 0 : 1;
}

} // namespace

//===----------------------------------------------------------------------===//
// probe: the host-speed probe on its own, for serve-open
//===----------------------------------------------------------------------===//

int cmdProbe(const Args &A) {
  std::vector<std::string> Probes;
  for (int R = 0; R != ProbeRepeats; ++R)
    Probes.push_back(JsonObj().num("probe_s", hostProbe()).text());
  std::ofstream OS(A.get("out"));
  OS << JsonObj().raw("probes", jsonArray(Probes)).text() << "\n";
  return OS ? 0 : 1;
}

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::cerr << "usage: perfbench_harness "
                 "prepare|fig3|synth|serve-ref|probe [--key value]...\n";
    return 2;
  }
  const std::string Cmd = Argv[1];
  Args A;
  for (int I = 2; I + 1 < Argc; I += 2) {
    if (std::strncmp(Argv[I], "--", 2) != 0) {
      std::cerr << "perfbench_harness: unexpected argument " << Argv[I]
                << "\n";
      return 2;
    }
    A.KV[Argv[I] + 2] = Argv[I + 1];
  }
  setLogLevel(LogLevel::Warn);
  try {
    if (Cmd == "prepare")
      return cmdPrepare();
    if (Cmd == "fig3")
      return cmdFig3(A);
    if (Cmd == "synth")
      return cmdSynth(A);
    if (Cmd == "serve-ref")
      return cmdServeRef(A);
    if (Cmd == "probe")
      return cmdProbe(A);
  } catch (const std::exception &E) {
    std::cerr << "perfbench_harness: " << E.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_harness: unknown command " << Cmd << "\n";
  return 2;
}
