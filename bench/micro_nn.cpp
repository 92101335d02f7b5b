//===- bench/micro_nn.cpp - Microbenchmarks for the CNN substrate -------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the inference path that dominates
// every experiment: one black-box query = one batch-1 forward pass. Also
// measures the GEMM/im2col primitives and training steps.
//
//===----------------------------------------------------------------------===//

#include "classify/NNClassifier.h"
#include "nn/Loss.h"
#include "nn/ModelZoo.h"
#include "nn/Optimizer.h"
#include "support/ArgParse.h"
#include "support/BenchJson.h"
#include "support/BenchScale.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "tensor/TensorOps.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>

using namespace oppsla;

namespace {

void BM_Matmul(benchmark::State &State) {
  const auto N = static_cast<size_t>(State.range(0));
  Rng R(1);
  const Tensor A = Tensor::randn({N, N}, R);
  const Tensor B = Tensor::randn({N, N}, R);
  Tensor C({N, N});
  for (auto _ : State) {
    matmul(A, B, C);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(2 * N * N * N));
}
BENCHMARK(BM_Matmul)->Arg(16)->Arg(64)->Arg(128);

void BM_Im2Col(benchmark::State &State) {
  Rng R(2);
  const Tensor In = Tensor::randn({1, 8, 32, 32}, R);
  Tensor Cols({8 * 9, 32 * 32});
  for (auto _ : State) {
    im2col(In, 3, 3, 1, 1, Cols);
    benchmark::DoNotOptimize(Cols.data());
  }
}
BENCHMARK(BM_Im2Col);

/// Random images of side \p Side, one per seed.
Image randomImage(size_t Side, uint64_t Seed) {
  Rng IR(Seed);
  Image Img(Side, Side);
  for (float &V : Img.raw())
    V = IR.uniformF();
  return Img;
}

/// A full forward per query: two unrelated images alternate, so neither is
/// ever a few pixels away from the classifier's base image.
void BM_ForwardQuery(benchmark::State &State) {
  const Arch A = static_cast<Arch>(State.range(0));
  const auto Side = static_cast<size_t>(State.range(1));
  Rng R(3);
  auto Net = buildModel(A, 10, Side, R);
  NNClassifier C(std::move(Net), 10, archName(A));
  const Image Imgs[2] = {randomImage(Side, 4), randomImage(Side, 5)};
  size_t I = 0;
  for (auto _ : State) {
    const std::vector<float> S = C.scores(Imgs[I++ & 1]);
    benchmark::DoNotOptimize(S.data());
  }
  State.SetLabel(std::string(archName(A)) + "@" + std::to_string(Side));
}

/// The attack's query: the base image with one pixel set to an RGB corner,
/// cycling over every location (incremental inference, DESIGN.md §16).
void BM_OnePixelQuery(benchmark::State &State) {
  const Arch A = static_cast<Arch>(State.range(0));
  const auto Side = static_cast<size_t>(State.range(1));
  Rng R(3);
  auto Net = buildModel(A, 10, Side, R);
  NNClassifier C(std::move(Net), 10, archName(A));
  const Image Base = randomImage(Side, 4);
  C.scores(Base);
  size_t I = 0;
  for (auto _ : State) {
    const size_t Loc = I++ % (Side * Side);
    const float V = static_cast<float>(I & 1);
    const Image Q = Base.withPixel(Loc / Side, Loc % Side, Pixel{V, V, V});
    const std::vector<float> S = C.scores(Q);
    benchmark::DoNotOptimize(S.data());
  }
  State.SetLabel(std::string(archName(A)) + "@" + std::to_string(Side));
}

void zooArgs(benchmark::internal::Benchmark *B) {
  B->Args({static_cast<long>(Arch::MiniVGG), 32})
      ->Args({static_cast<long>(Arch::MiniResNet), 32})
      ->Args({static_cast<long>(Arch::MiniGoogLeNet), 32})
      ->Args({static_cast<long>(Arch::MiniDenseNet), 32})
      ->Args({static_cast<long>(Arch::MiniDenseNet), 40})
      ->Args({static_cast<long>(Arch::MiniResNet50), 40});
}
BENCHMARK(BM_ForwardQuery)->Apply(zooArgs);
BENCHMARK(BM_OnePixelQuery)->Apply(zooArgs);

void BM_TrainStep(benchmark::State &State) {
  Rng R(5);
  auto Net = buildModel(Arch::MiniVGG, 10, 32, R);
  Sgd Opt(Net->parameters(), 0.05f);
  CrossEntropy Loss;
  Rng DR(6);
  const Tensor Batch = Tensor::rand({16, 3, 32, 32}, DR);
  std::vector<size_t> Labels(16);
  for (size_t I = 0; I != 16; ++I)
    Labels[I] = I % 10;
  for (auto _ : State) {
    Opt.zeroGrad();
    Tensor Logits = Net->forward(Batch, /*Train=*/true);
    Loss.forward(Logits, Labels);
    Net->backward(Loss.backward());
    Opt.step();
    benchmark::DoNotOptimize(Logits.data());
  }
}
BENCHMARK(BM_TrainStep);

/// Console reporter that additionally captures each benchmark's adjusted
/// real time (in its display time unit, ns by default) so main() can fold
/// the results into the standard BENCH_<name>.json artifact.
class CaptureReporter : public benchmark::ConsoleReporter {
public:
  std::map<std::string, double> Times;

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs)
      if (!R.error_occurred && !R.report_big_o && !R.report_rms)
        Times[R.benchmark_name()] = R.GetAdjustedRealTime();
    ConsoleReporter::ReportRuns(Runs);
  }
};

} // namespace

// Custom main instead of BENCHMARK_MAIN(): strips the telemetry flags
// (--layer-timing / --metrics-out / --trace-out / --json-out / profiler
// flags) before handing argv to google-benchmark, and prints the per-layer
// forward time breakdown collected under --layer-timing after the
// benchmarks ran.
int main(int argc, char **argv) {
  const ArgParse Args(argc, argv);
  if (!oppsla::telemetry::configureFromArgs(Args))
    return 1;

  std::vector<char *> BenchArgv;
  for (int I = 0; I != argc; ++I) {
    const char *A = argv[I];
    // "--profile" also matches "--profile-out", "--stats-port" also
    // matches "--stats-port-file"; all of them are ours, not benchmark's.
    const bool Telemetry = std::strncmp(A, "--layer-timing", 14) == 0 ||
                           std::strncmp(A, "--metrics-out", 13) == 0 ||
                           std::strncmp(A, "--trace-out", 11) == 0 ||
                           std::strncmp(A, "--json-out", 10) == 0 ||
                           std::strncmp(A, "--profile", 9) == 0 ||
                           std::strncmp(A, "--progress", 10) == 0 ||
                           std::strncmp(A, "--stats-port", 12) == 0 ||
                           std::strncmp(A, "--stats-linger", 14) == 0 ||
                           std::strncmp(A, "--repeat", 8) == 0 ||
                           std::strncmp(A, "--hw-counters", 13) == 0 ||
                           std::strncmp(A, "--ledger", 8) == 0;
    if (Telemetry) {
      // Skip a separate `--flag value` operand as ArgParse would.
      if (std::strchr(A, '=') == nullptr && I + 1 < argc &&
          std::strncmp(argv[I + 1], "--", 2) != 0)
        ++I;
      continue;
    }
    BenchArgv.push_back(argv[I]);
  }
  int BenchArgc = static_cast<int>(BenchArgv.size());
  benchmark::Initialize(&BenchArgc, BenchArgv.data());
  CaptureReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();

  const std::string LayerReport = oppsla::telemetry::layerTimingReport();
  if (!LayerReport.empty())
    std::cout << "\n" << LayerReport;

  BenchJson BJ("micro_nn", BenchScale::fromEnv().Name, Args);
  for (const auto &[Name, RealTime] : Reporter.Times)
    BJ.set(Name + "_ns", RealTime);
  if (!BJ.writeFromArgs(Args))
    return 1;
  oppsla::telemetry::finalizeTelemetry();
  return 0;
}
