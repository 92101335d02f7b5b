//===- tools/oppsla_cli.cpp - Command line driver for the library -------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Umbrella command line tool exposing the library's workflow:
//
//   oppsla train      --arch vgg --task cifar [--scale small]
//   oppsla synthesize --arch vgg --class 0 [--iters 20] [--out prog.txt]
//   oppsla explain    --program prog.txt [--side 32]
//   oppsla attack     --arch vgg --class 0 --program prog.txt
//                     [--budget 4096] [--images 16]
//   oppsla eval       --arch vgg --attack oppsla|sparse-rs|suopa|random
//                     [--class 0] [--budget 4096] [--seed 1]
//   oppsla serve      --port 0 [--capacity 16] [--workers 1]
//                     [--checkpoint-dir D] [--checkpoint-every 4]
//                     [--resume] [--max-seconds 0] [--no-job-trace]
//   oppsla client     submit|list|status|result|cancel|wait|trace|shutdown
//                     --port N | --port-file f [--id N] [--out f] ...
//   oppsla wire       --in artifact [--runs-out runs.jsonl]
//
// Victims are cached under .oppsla-cache (or $OPPSLA_CACHE_DIR), so the
// train step is implicit in the other subcommands.
//
//===----------------------------------------------------------------------===//

#include "attacks/RandomPairSearch.h"
#include "attacks/SketchAttack.h"
#include "attacks/SparseRS.h"
#include "attacks/SuOPA.h"
#include "core/Analysis.h"
#include "core/Parse.h"
#include "engine/QueryEngine.h"
#include "eval/Evaluation.h"
#include "eval/Experiments.h"
#include "eval/Export.h"
#include "serve/Checkpoint.h"
#include "serve/JobQueue.h"
#include "serve/JobRunner.h"
#include "serve/ServeServer.h"
#include "wire/Wire.h"
#include "support/ArgParse.h"
#include "support/Http.h"
#include "support/Json.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Progress.h"
#include "support/StatsServer.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "tensor/Gemm.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

using namespace oppsla;

namespace {

int usage() {
  std::cerr
      << "usage: oppsla "
         "<train|synthesize|explain|attack|eval|serve|client|wire> "
         "[options]\n"
         "  common options: --arch vgg|resnet|googlenet|densenet|resnet50\n"
         "                  --task cifar|imagenet  --scale smoke|small|paper\n"
         "                  --threads N (parallel sweeps; 0 = all cores;\n"
         "                  results are identical for any thread count)\n"
         "  telemetry:      --trace-out t.jsonl  --metrics-out m.json\n"
         "                  --layer-timing (per-layer forward timings)\n"
         "                  --profile (span profiler call-tree report)\n"
         "                  --profile-out p.folded (folded stacks for\n"
         "                  flamegraph.pl/speedscope; implies --profile)\n"
         "                  --progress (single updating stderr line)\n"
         "                  --hw-counters (perf_event IPC/miss rates per\n"
         "                  span; no-op where perf is unavailable)\n"
         "  stats server:   --stats-port N (HTTP /metrics /profile\n"
         "                  /healthz /ledger on 127.0.0.1; 0 = ephemeral)\n"
         "                  --ledger runs.jsonl (bench ledger served by\n"
         "                  GET /ledger; see tools/oppsla_bench)\n"
         "                  --stats-port-file f (write the bound port)\n"
         "                  --stats-linger (serve after the run until\n"
         "                  GET /quitquitquit, 30s cap)\n"
         "  query engine:   --batch-size N (images per physical forward,\n"
         "                  default 8)  --cache-capacity N (memoized\n"
         "                  scores, default 4096)  --no-cache\n"
         "                  --engine-threads N (parallel forward chunks)\n"
         "                  results and avgQueries are identical for any\n"
         "                  engine setting, including --batch-size 1\n"
         "  kernels:        --naive-kernels (route conv/GEMM through the\n"
         "                  scalar reference loops; bit-identical to the\n"
         "                  default packed SGEMM, see DESIGN.md §12)\n"
         "  synthesis:      --synth-islands N (parallel MH chains with\n"
         "                  elite exchange; programs are identical for\n"
         "                  any --threads)  --exchange-interval N\n"
         "                  --program-store DIR (content-addressed cache\n"
         "                  of synthesized programs; default\n"
         "                  .oppsla-cache/programs)  --no-program-store\n"
         "  tracing:        --traceparent 00-..-..-01 (adopt a W3C trace\n"
         "                  context for this run; minted when absent)\n"
         "run with a subcommand for its specific options (see tool header)\n";
  return 2;
}

TaskKind taskOf(const ArgParse &Args) {
  return Args.get("task", "cifar") == "imagenet" ? TaskKind::ImageNetLike
                                                 : TaskKind::CifarLike;
}

Arch archOf(const ArgParse &Args) {
  return archFromName(Args.get("arch", "resnet"));
}

/// Shared `--batch-size` / `--cache-capacity` / `--no-cache` /
/// `--engine-threads` wiring. The engine is always interposed; the
/// degenerate config (batch 1, cache off) makes it a pure pass-through, so
/// these flags tune performance only — never results.
QueryEngineConfig engineConfigFromArgs(const ArgParse &Args) {
  QueryEngineConfig Config;
  Config.BatchSize = static_cast<size_t>(std::max(
      1LL, Args.getInt("batch-size", static_cast<long long>(Config.BatchSize))));
  Config.CacheCapacity =
      Args.getFlag("no-cache")
          ? 0
          : static_cast<size_t>(std::max(
                0LL, Args.getInt("cache-capacity",
                                 static_cast<long long>(Config.CacheCapacity))));
  Config.Threads = static_cast<size_t>(
      std::max(1LL, Args.getInt("engine-threads", 1)));
  return Config;
}

/// Shared `--synth-islands` / `--exchange-interval` / `--program-store` /
/// `--no-program-store` wiring for every command that synthesizes.
/// Islands and the exchange cadence are part of the result (and of the
/// store key); threads and the store are not — any thread count and a warm
/// or cold store yield byte-identical programs.
SynthesisRunOptions synthesisOptionsFromArgs(const ArgParse &Args) {
  SynthesisRunOptions Opts;
  Opts.Threads = threadCountFromArgs(Args);
  Opts.Islands = static_cast<size_t>(
      std::max(1LL, Args.getInt("synth-islands", 1)));
  Opts.ExchangeInterval = static_cast<size_t>(
      std::max(1LL, Args.getInt("exchange-interval", 25)));
  Opts.UseStore = !Args.getFlag("no-program-store");
  Opts.StoreRoot = Args.get("program-store", "");
  return Opts;
}

/// Prints the span profiler's call-tree (indented under \p Indent) when
/// profiling was on and recorded anything.
void printProfileReport(const char *Indent) {
  const std::string Report = telemetry::profileTextReport();
  if (Report.empty())
    return;
  std::istringstream In(Report);
  std::string Line;
  while (std::getline(In, Line))
    std::cout << Indent << Line << "\n";
}

int cmdTrain(const ArgParse &Args) {
  const BenchScale Scale = BenchScale::preset(Args.get("scale", "small"));
  std::unique_ptr<NNClassifier> Victim;
  const Dataset Test = makeTestSet(taskOf(Args), Scale);
  size_t Correct = 0;
  {
    telemetry::ProfileScope Root("cli.train");
    Victim = makeScaledVictim(taskOf(Args), archOf(Args), Scale);
    for (size_t I = 0; I != Test.size(); ++I)
      Correct += Victim->predict(Test.Images[I]) == Test.Labels[I];
  }
  std::cout << "victim " << Victim->name() << " ready; test accuracy "
            << Table::fmt(100.0 * static_cast<double>(Correct) /
                              static_cast<double>(Test.size()),
                          1)
            << "% over " << Test.size() << " images\n";
  printProfileReport("");
  return 0;
}

int cmdSynthesize(const ArgParse &Args) {
  BenchScale Scale = BenchScale::preset(Args.get("scale", "small"));
  // --iters overrides the scale's iteration budget; it feeds the store key
  // through Scale, so custom-budget programs never alias preset ones.
  Scale.SynthIters = static_cast<size_t>(std::max(
      0LL,
      Args.getInt("iters", static_cast<long long>(Scale.SynthIters))));
  const TaskKind Task = taskOf(Args);
  const auto Label = static_cast<size_t>(Args.getInt("class", 0));
  const auto Seed =
      static_cast<uint64_t>(std::max(0LL, Args.getInt("seed", 1)));
  auto Victim = makeScaledVictim(Task, archOf(Args), Scale, Seed);
  const SynthesisRunOptions Opts = synthesisOptionsFromArgs(Args);

  std::vector<SynthesisStep> Trace;
  const std::string TraceJsonl = Args.get("synth-trace-out", "");
  Program P;
  {
    telemetry::ProfileScope Root("cli.synth");
    if (TraceJsonl.empty()) {
      // The store-backed path `eval` and `serve` use: a warm store
      // rehydrates instead of re-searching.
      P = synthesizeClassProgram(*Victim,
                                 victimStem(Task, archOf(Args), Scale, Seed),
                                 Task, Scale, Label, Seed, Opts);
    } else {
      // A trace records a live search, so this path always runs the MH
      // chains (same config and per-class seed as the store-backed path).
      const SynthesisConfig Config =
          classSynthesisConfig(Scale, Label, Seed, Opts);
      const Dataset Train = makeSynthesisSet(Task, Label, Scale, Seed);
      P = synthesizeProgram(*Victim, Train, Config, &Trace);
    }
  }
  std::cout << P.str();
  printProfileReport("");
  if (!TraceJsonl.empty()) {
    if (!exportSynthesisTraceJsonl(Trace, TraceJsonl)) {
      std::cerr << "error: cannot write " << TraceJsonl << "\n";
      return 1;
    }
    std::cout << "synthesis trace saved to " << TraceJsonl << "\n";
  }

  const std::string Out = Args.get("out", "");
  if (!Out.empty()) {
    if (!saveProgram(P, Out)) {
      std::cerr << "error: cannot write " << Out << "\n";
      return 1;
    }
    std::cout << "saved to " << Out << "\n";
  }
  return 0;
}

int cmdExplain(const ArgParse &Args) {
  const std::string Path = Args.get("program", "");
  if (Path.empty()) {
    std::cerr << "error: --program <file> is required\n";
    return 2;
  }
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "error: cannot open " << Path << "\n";
    return 1;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();

  // Accept both the save-file format and the textual DSL.
  Program P;
  if (!loadProgram(P, Path)) {
    const ParseResult R = parseProgram(Buffer.str(), P);
    if (!R.Ok) {
      std::cerr << "parse error at " << R.Line << ":" << R.Column << ": "
                << R.Message << "\n";
      return 1;
    }
  }
  const auto Side = static_cast<size_t>(Args.getInt("side", 32));
  std::cout << explainProgram(P, Side);
  const Program Normalized = normalizeProgram(P, Side);
  if (!equivalentPrograms(P, allFalseProgram(), Side) &&
      equivalentPrograms(Normalized, allFalseProgram(), Side))
    std::cout << "note: normalizes to the fixed prioritization\n";
  return 0;
}

int cmdAttack(const ArgParse &Args) {
  const BenchScale Scale = BenchScale::preset(Args.get("scale", "small"));
  const TaskKind Task = taskOf(Args);
  const auto Label = static_cast<size_t>(Args.getInt("class", 0));
  const auto Budget = static_cast<uint64_t>(
      Args.getInt("budget", static_cast<long long>(Scale.EvalQueryCap)));
  auto Victim = makeScaledVictim(Task, archOf(Args), Scale);

  Program P = allFalseProgram();
  const std::string Path = Args.get("program", "");
  if (!Path.empty() && !loadProgram(P, Path)) {
    std::cerr << "error: cannot load program from " << Path << "\n";
    return 1;
  }

  Dataset Test = makeTestSet(Task, Scale).filterByClass(Label);
  const auto MaxImages = static_cast<size_t>(Args.getInt("images", 16));
  if (Test.size() > MaxImages) {
    Test.Images.resize(MaxImages);
    Test.Labels.resize(MaxImages);
  }

  QueryEngine Engine(*Victim, engineConfigFromArgs(Args));
  SketchAttack A(P, Path.empty() ? "Sketch+False" : "program");
  Table T({"image", "outcome", "#queries", "pixel", "perturbation"});
  {
    telemetry::ProfileScope Root("cli.attack");
    telemetry::progressBegin("attack", Test.size());
    for (size_t I = 0; I != Test.size(); ++I) {
      telemetry::TraceImageScope Scope(static_cast<int64_t>(I));
      const AttackResult R =
          A.attack(Engine, Test.Images[I], Label, Budget);
      telemetry::progressItem(!R.AlreadyMisclassified,
                              R.Success && !R.AlreadyMisclassified,
                              R.Queries);
      std::ostringstream Loc, Pert;
      if (R.Success && !R.AlreadyMisclassified) {
        Loc << "(" << R.Loc.Row << "," << R.Loc.Col << ")";
        Pert << "(" << R.Perturbation.R << "," << R.Perturbation.G << ","
             << R.Perturbation.B << ")";
      }
      T.addRow({std::to_string(I),
                R.AlreadyMisclassified ? "discarded"
                : R.Success            ? "success"
                                       : "failure",
                std::to_string(R.Queries), Loc.str(), Pert.str()});
    }
    telemetry::progressFinish();
  }
  T.print(std::cout);
  printProfileReport("");
  return 0;
}

int cmdEval(const ArgParse &Args) {
  const BenchScale Scale = BenchScale::preset(Args.get("scale", "small"));
  const TaskKind Task = taskOf(Args);
  const Arch A = archOf(Args);
  const auto Budget = static_cast<uint64_t>(
      Args.getInt("budget", static_cast<long long>(Scale.EvalQueryCap)));
  // --seed reseeds the victim, its test set, and program synthesis as one
  // coherent experiment (the default 1 matches every earlier run).
  const auto Seed =
      static_cast<uint64_t>(std::max(0LL, Args.getInt("seed", 1)));
  auto Victim = makeScaledVictim(Task, A, Scale, Seed);
  const Dataset Test = makeTestSet(Task, Scale, Seed);

  // The attack sweeps query through the engine (synthesis drives the raw
  // victim: it needs the concrete NNClassifier). The parallel sweep clones
  // the engine per worker, so each worker gets its own cache.
  QueryEngine Engine(*Victim, engineConfigFromArgs(Args));

  const std::string Kind = Args.get("attack", "oppsla");
  const size_t Threads = threadCountFromArgs(Args);
  telemetry::setRunInfo("attack", Kind);
  telemetry::setRunInfo("victim", Victim->name());
  std::vector<AttackRunLog> Logs;
  {
    // The root span closes here, before the metrics section renders:
    // the profiler counts a span only once it exits, so the report's
    // `cli.eval` total covers the whole sweep (≈ the run's wall time).
    telemetry::ProfileScope Root("cli.eval");
    if (Kind == "oppsla") {
      SynthesisRunOptions SynthOpts = synthesisOptionsFromArgs(Args);
      SynthOpts.Threads = Threads;
      const std::vector<Program> Programs = synthesizeClassPrograms(
          *Victim, victimStem(Task, A, Scale, Seed), Task, Scale, Seed,
          SynthOpts);
      Logs = runProgramsOverSet(Programs, Engine, Test, Budget, Threads);
    } else if (Kind == "sparse-rs") {
      SparseRS Attack;
      Logs = runAttackOverSet(Attack, Engine, Test, Budget, Threads);
    } else if (Kind == "suopa") {
      SuOPA Attack;
      Logs = runAttackOverSet(Attack, Engine, Test, Budget, Threads);
    } else if (Kind == "random") {
      RandomPairSearch Attack;
      Logs = runAttackOverSet(Attack, Engine, Test, Budget, Threads);
    } else {
      std::cerr << "error: unknown --attack '" << Kind << "'\n";
      return 2;
    }
  }

  const std::string RunsOut = Args.get("runs-out", "");
  if (!RunsOut.empty() && !exportRunLogsJsonl(Logs, RunsOut)) {
    std::cerr << "error: cannot write " << RunsOut << "\n";
    return 1;
  }

  const QuerySample S = toQuerySample(Logs);
  std::cout << "attack=" << Kind << " victim=" << Victim->name()
            << " budget=" << Budget << "\n"
            << "  success rate : "
            << Table::fmt(100.0 * S.successRate(), 1) << "%\n"
            << "  avg #queries : " << Table::fmt(S.avgQueries(), 1) << "\n"
            << "  med #queries : " << Table::fmt(S.medianQueries(), 1)
            << "\n";

  // Telemetry summary: queries-per-attack distribution, attack outcome
  // counters, and (with --metrics-out/--layer-timing) per-layer forward
  // times collected during this run.
  std::cout << "metrics:\n";
  const std::string EngineSummary = engineMetricsSummary();
  if (!EngineSummary.empty())
    std::cout << "  " << EngineSummary << "\n";
  std::istringstream Report(telemetry::metricsTextReport());
  std::string Line;
  while (std::getline(Report, Line))
    std::cout << "  " << Line << "\n";
  const std::string LayerReport = telemetry::layerTimingReport();
  if (!LayerReport.empty())
    std::cout << LayerReport;
  printProfileReport("  ");
  return 0;
}

/// `oppsla serve`: the attack-as-a-service job server. See DESIGN.md §13.
int cmdServe(const ArgParse &Args) {
  serve::JobRunnerConfig RunnerConfig;
  RunnerConfig.CheckpointDir = Args.get("checkpoint-dir", ".oppsla-serve");
  RunnerConfig.Workers =
      static_cast<size_t>(std::max(0LL, Args.getInt("workers", 1)));
  RunnerConfig.Threads = threadCountFromArgs(Args);
  RunnerConfig.CheckpointEvery =
      static_cast<size_t>(std::max(1LL, Args.getInt("checkpoint-every", 4)));
  RunnerConfig.Engine = engineConfigFromArgs(Args);
  RunnerConfig.Synth = synthesisOptionsFromArgs(Args);
  RunnerConfig.CrashAfterImages = static_cast<size_t>(
      std::max(0LL, Args.getInt("crash-after-images", 0)));

  std::string Error;
  if (!serve::ensureDir(RunnerConfig.CheckpointDir, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }

  // Job tracing is on by default (it is the observability layer the serve
  // endpoints expose); --no-job-trace turns it off for overhead A/Bs.
  serve::setJobTracingEnabled(!Args.getFlag("no-job-trace"));

  serve::JobQueue Queue(
      static_cast<size_t>(std::max(1LL, Args.getInt("capacity", 16))));
  serve::JobRunner Runner(Queue, RunnerConfig);
  if (Args.getFlag("resume"))
    std::cerr << "serve: resumed " << Runner.resume()
              << " pending job(s) from " << RunnerConfig.CheckpointDir
              << "\n";

  // Drain per-job trace timelines to <checkpoint-dir>/job-<id>.trace.json
  // at telemetry flush time, so SIGTERM and /quitquitquit both persist
  // them before the process dies (the flush-on-shutdown regression test
  // reads these files). The hook is removed before Queue goes out of
  // scope.
  const std::string TraceDir = RunnerConfig.CheckpointDir;
  const uint64_t FlushHook = telemetry::addTelemetryFlushHook(
      [&Queue, TraceDir] {
        for (const auto &J : Queue.all()) {
          if (!J->Trace)
            continue;
          std::string E;
          wire::writeFileAtomic(TraceDir + "/job-" +
                                     std::to_string(J->Id) + ".trace.json",
                                 J->Trace->chromeTraceJson(), E);
        }
      });
  telemetry::installTelemetryExitHandlers();

  serve::ServeServerConfig ServerConfig;
  ServerConfig.Port =
      static_cast<uint16_t>(Args.getInt("port", 0));
  serve::ServeServer Server(Queue, Runner, ServerConfig);
  if (!Server.start())
    return 1;
  std::cerr << "serve: listening on 127.0.0.1:" << Server.port() << "\n";
  const std::string PortFile = Args.get("port-file", "");
  if (!PortFile.empty()) {
    std::ofstream OS(PortFile);
    OS << Server.port() << "\n";
  }
  Runner.start();

  // Serve until GET /quitquitquit — or the --max-seconds safety cap, so a
  // test-launched server can never outlive its harness.
  Server.waitQuit(Args.getDouble("max-seconds", 0.0));
  Server.stop();
  Runner.stop(); // drains the current shard, checkpoints, requeues
  // Orderly shutdown drains trace buffers explicitly — the atexit path
  // would too, but doing it here keeps the guarantee independent of how
  // main() unwinds.
  telemetry::flushTelemetryNow();
  telemetry::removeTelemetryFlushHook(FlushHook);
  std::cerr << "serve: shut down\n";
  return 0;
}

/// Resolves the server port from --port or --port-file.
bool clientPort(const ArgParse &Args, uint16_t &Port, std::string &Error) {
  if (Args.has("port")) {
    Port = static_cast<uint16_t>(Args.getInt("port", 0));
    return true;
  }
  const std::string PortFile = Args.get("port-file", "");
  if (PortFile.empty()) {
    Error = "--port or --port-file is required";
    return false;
  }
  std::ifstream In(PortFile);
  long long V = 0;
  if (!(In >> V) || V <= 0 || V > 65535) {
    Error = "cannot read a port from " + PortFile;
    return false;
  }
  Port = static_cast<uint16_t>(V);
  return true;
}

/// Exit codes shared by the client verbs, so scripts can branch:
/// 0 ok, 1 job failed/cancelled, 2 usage, 3 queue full (429),
/// 4 HTTP-level rejection, 6 wait timeout, 7 server unreachable.
constexpr int RcJobFailed = 1;
constexpr int RcQueueFull = 3;
constexpr int RcRejected = 4;
constexpr int RcTimeout = 6;
constexpr int RcUnreachable = 7;

/// Polls GET /v1/jobs/<id> until the job leaves queued/running.
int clientWait(uint16_t Port, uint64_t Id, double TimeoutSeconds) {
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(TimeoutSeconds);
  while (std::chrono::steady_clock::now() < Deadline) {
    http::Response Resp;
    std::string Error;
    if (!http::request(Port, "GET", "/v1/jobs/" + std::to_string(Id), "",
                       Resp, Error)) {
      std::cerr << "error: " << Error << "\n";
      return RcUnreachable;
    }
    json::Value Doc;
    if (Resp.Status == 200 && json::parse(Resp.Body, Doc, Error)) {
      const std::string State = Doc.getString("state", "");
      if (State == "done") {
        std::cout << Resp.Body << "\n";
        return 0;
      }
      if (State == "failed" || State == "cancelled") {
        std::cout << Resp.Body << "\n";
        return RcJobFailed;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::cerr << "error: timed out waiting for job " << Id << "\n";
  return RcTimeout;
}

/// Downloads /v1/jobs/<id>/result into \p OutPath.
int clientResult(uint16_t Port, uint64_t Id, const std::string &OutPath) {
  http::Response Resp;
  std::string Error;
  if (!http::request(Port, "GET",
                     "/v1/jobs/" + std::to_string(Id) + "/result", "",
                     Resp, Error)) {
    std::cerr << "error: " << Error << "\n";
    return RcUnreachable;
  }
  if (Resp.Status != 200) {
    std::cerr << "error: " << Resp.Body << "\n";
    return RcRejected;
  }
  if (OutPath.empty() || OutPath == "-") {
    std::cout << Resp.Body;
    return 0;
  }
  if (!wire::writeFileAtomic(OutPath, Resp.Body, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::cout << "result (" << Resp.Body.size() << " bytes) saved to "
            << OutPath << "\n";
  return 0;
}

/// `oppsla client`: talk to a running `oppsla serve`.
int cmdClient(const ArgParse &Args) {
  if (Args.positional().empty()) {
    std::cerr << "usage: oppsla client "
                 "<submit|list|status|result|cancel|wait|trace|shutdown> "
                 "(--port N | --port-file f) [--id N] [--out f]\n"
                 "  submit: --spec '<json>' or --kind attack|eval|synth "
                 "[--attack sparse-rs|suopa|random]\n"
                 "          [--task cifar|imagenet] [--arch resnet|...] "
                 "[--scale smoke|small|paper]\n"
                 "          [--seed N] [--budget N] [--priority N] "
                 "[--begin N] [--count N] [--wait] [--out f]\n"
                 "          [--traceparent 00-..-..-01] [--no-trace]\n"
                 "  trace:  --id N [--out f] (Chrome Trace Event JSON;\n"
                 "          open in chrome://tracing or Perfetto)\n";
    return 2;
  }
  uint16_t Port = 0;
  std::string Error;
  if (!clientPort(Args, Port, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 2;
  }
  const std::string Verb = Args.positional()[0];
  const double Timeout = Args.getDouble("timeout", 600.0);
  const auto Id = static_cast<uint64_t>(std::max(0LL, Args.getInt("id", 0)));

  if (Verb == "submit") {
    std::string Body = Args.get("spec", "");
    if (Body.empty()) {
      Body = "{\"kind\":\"" + Args.get("kind", "eval") + "\"";
      if (Args.has("attack"))
        Body += ",\"attack\":\"" + Args.get("attack", "") + "\"";
      Body += ",\"victim\":{\"task\":\"" + Args.get("task", "cifar") +
              "\",\"arch\":\"" + Args.get("arch", "resnet") +
              "\",\"scale\":\"" + Args.get("scale", "smoke") +
              "\"},\"seed\":" + std::to_string(Args.getInt("seed", 1)) +
              ",\"budget\":" + std::to_string(Args.getInt("budget", 0)) +
              ",\"priority\":" +
              std::to_string(Args.getInt("priority", 0)) +
              ",\"slice\":{\"begin\":" +
              std::to_string(Args.getInt("begin", 0)) +
              ",\"count\":" + std::to_string(Args.getInt("count", 0)) +
              "}}";
    }
    // Mint (or adopt via --traceparent) a trace context and send it as a
    // W3C traceparent header, so the server's job timeline carries an id
    // the submitter chose and can correlate across systems. --no-trace
    // leaves minting to the server.
    std::vector<std::pair<std::string, std::string>> Headers;
    if (!Args.getFlag("no-trace")) {
      telemetry::TraceContext Ctx;
      const std::string Given = Args.get("traceparent", "");
      if (!Given.empty()) {
        if (!telemetry::parseTraceparent(Given, Ctx)) {
          std::cerr << "error: malformed --traceparent '" << Given << "'\n";
          return 2;
        }
      } else {
        Ctx = telemetry::mintTraceContext();
      }
      Headers.emplace_back("traceparent", Ctx.traceparent());
      std::cerr << "trace-id: " << Ctx.TraceId << "\n";
    }
    http::Response Resp;
    if (!http::request(Port, "POST", "/v1/jobs", Body, Resp, Error, 30.0,
                       Headers)) {
      std::cerr << "error: " << Error << "\n";
      return RcUnreachable;
    }
    std::cout << Resp.Body << "\n";
    if (Resp.Status == 429)
      return RcQueueFull;
    if (Resp.Status != 202)
      return RcRejected;
    if (!Args.getFlag("wait"))
      return 0;
    json::Value Doc;
    if (!json::parse(Resp.Body, Doc, Error))
      return RcRejected;
    const auto NewId = static_cast<uint64_t>(Doc.getNumber("id", 0.0));
    const int RC = clientWait(Port, NewId, Timeout);
    if (RC != 0)
      return RC;
    const std::string Out = Args.get("out", "");
    return Out.empty() ? 0 : clientResult(Port, NewId, Out);
  }
  if (Verb == "list") {
    http::Response Resp;
    if (!http::request(Port, "GET", "/v1/jobs", "", Resp, Error)) {
      std::cerr << "error: " << Error << "\n";
      return RcUnreachable;
    }
    std::cout << Resp.Body << "\n";
    return Resp.Status == 200 ? 0 : RcRejected;
  }
  if (Verb == "status") {
    http::Response Resp;
    if (!http::request(Port, "GET", "/v1/jobs/" + std::to_string(Id), "",
                       Resp, Error)) {
      std::cerr << "error: " << Error << "\n";
      return RcUnreachable;
    }
    std::cout << Resp.Body << "\n";
    return Resp.Status == 200 ? 0 : RcRejected;
  }
  if (Verb == "result")
    return clientResult(Port, Id, Args.get("out", ""));
  if (Verb == "cancel") {
    http::Response Resp;
    if (!http::request(Port, "DELETE", "/v1/jobs/" + std::to_string(Id),
                       "", Resp, Error)) {
      std::cerr << "error: " << Error << "\n";
      return RcUnreachable;
    }
    std::cout << Resp.Body << "\n";
    return Resp.Status == 200 ? 0 : RcRejected;
  }
  if (Verb == "wait")
    return clientWait(Port, Id, Timeout);
  if (Verb == "trace") {
    http::Response Resp;
    if (!http::request(Port, "GET",
                       "/v1/jobs/" + std::to_string(Id) + "/trace", "",
                       Resp, Error)) {
      std::cerr << "error: " << Error << "\n";
      return RcUnreachable;
    }
    if (Resp.Status != 200) {
      std::cerr << "error: " << Resp.Body << "\n";
      return RcRejected;
    }
    const std::string Out = Args.get("out", "");
    if (Out.empty() || Out == "-") {
      std::cout << Resp.Body << "\n";
      return 0;
    }
    if (!wire::writeFileAtomic(Out, Resp.Body, Error)) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
    std::cout << "trace (" << Resp.Body.size() << " bytes) saved to " << Out
              << "\n";
    return 0;
  }
  if (Verb == "shutdown") {
    http::Response Resp;
    if (!http::request(Port, "GET", "/quitquitquit", "", Resp, Error)) {
      std::cerr << "error: " << Error << "\n";
      return RcUnreachable;
    }
    return Resp.Status == 200 ? 0 : RcRejected;
  }
  std::cerr << "error: unknown client verb '" << Verb << "'\n";
  return 2;
}

/// `oppsla wire`: inspect a wire artifact / convert its runs to the
/// run-log JSONL shape of `eval --runs-out`.
int cmdWire(const ArgParse &Args) {
  const std::string In = Args.get("in", "");
  if (In.empty()) {
    std::cerr << "usage: oppsla wire --in artifact [--runs-out runs.jsonl]"
                 " [--dump-programs]\n";
    return 2;
  }
  wire::WireContents C;
  std::string Error;
  if (!wire::readWireFile(In, C, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::cout << "wire artifact: " << C.Runs.size() << " runs, "
            << C.Programs.size() << " programs, " << C.Images.size()
            << " images\n";
  if (!C.JobSpecJson.empty())
    std::cout << "spec: " << C.JobSpecJson << "\n";
  if (Args.getFlag("dump-programs"))
    for (const std::string &P : C.Programs)
      std::cout << P << "\n";
  const std::string RunsOut = Args.get("runs-out", "");
  if (!RunsOut.empty()) {
    std::ofstream OS(RunsOut, std::ios::binary | std::ios::trunc);
    OS << wire::runsToJsonl(C.Runs);
    if (!OS.good()) {
      std::cerr << "error: cannot write " << RunsOut << "\n";
      return 1;
    }
    std::cout << "runs saved to " << RunsOut << "\n";
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  const std::string Cmd = argv[1];
  ArgParse Args(argc - 1, argv + 1);

  // Telemetry flags are shared by every subcommand, as is the
  // --naive-kernels escape hatch back to the scalar reference kernels.
  kernels::configureFromArgs(Args);
  if (!telemetry::configureFromArgs(Args))
    return 1;
  telemetry::setProgressEnabled(Args.getFlag("progress"));
  telemetry::setRunInfo("command", Cmd);

  // Ambient run-level trace context: adopt --traceparent or mint one, so
  // log-ring records and JSONL trace events carry a trace id on *offline*
  // runs too — the stats server's /logz is correlatable without `oppsla
  // serve` in the loop. Served jobs still open their own per-job scopes on
  // top of this one.
  const std::string GivenTraceparent = Args.get("traceparent", "");
  telemetry::TraceContext RunCtx;
  if (!GivenTraceparent.empty()) {
    if (!telemetry::parseTraceparent(GivenTraceparent, RunCtx)) {
      std::cerr << "error: malformed --traceparent '" << GivenTraceparent
                << "'\n";
      return 2;
    }
  } else {
    RunCtx = telemetry::mintTraceContext();
  }
  telemetry::TraceContextScope RunTraceScope(RunCtx.TraceId);
  telemetry::setRunInfo("trace_id", RunCtx.TraceId);
  if (Args.has("stats-port") || !GivenTraceparent.empty())
    std::cerr << "trace-id: " << RunCtx.TraceId << "\n";

  // Live introspection: --stats-port 0 picks a free port; the bound port
  // can be written to a file so scrapers do not have to guess.
  telemetry::StatsServer Server;
  if (Args.has("stats-port")) {
    const auto Port =
        static_cast<uint16_t>(Args.getInt("stats-port", 0));
    if (!Server.start(Port))
      return 1;
    // Logged under the run trace context before the port file exists, so
    // a scraper that found the port always finds a /logz record too.
    logInfo() << "stats server listening on 127.0.0.1:" << Server.port();
    const std::string PortFile = Args.get("stats-port-file", "");
    if (!PortFile.empty()) {
      std::ofstream OS(PortFile);
      OS << Server.port() << "\n";
    }
  }

  int RC;
  if (Cmd == "train")
    RC = cmdTrain(Args);
  else if (Cmd == "synthesize")
    RC = cmdSynthesize(Args);
  else if (Cmd == "explain")
    RC = cmdExplain(Args);
  else if (Cmd == "attack")
    RC = cmdAttack(Args);
  else if (Cmd == "eval")
    RC = cmdEval(Args);
  else if (Cmd == "serve")
    RC = cmdServe(Args);
  else if (Cmd == "client")
    RC = cmdClient(Args);
  else if (Cmd == "wire")
    RC = cmdWire(Args);
  else
    return usage();

  // --stats-linger keeps the server up briefly after the run so a scraper
  // launched in parallel can still read the final state; GET /quitquitquit
  // releases the wait early.
  if (Server.running() && Args.getFlag("stats-linger"))
    Server.waitQuit(30.0);
  Server.stop();

  if (!telemetry::finalizeTelemetry() && RC == 0)
    RC = 1;
  return RC;
}
