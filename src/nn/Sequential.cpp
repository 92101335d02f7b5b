//===- nn/Sequential.cpp - Layer composition --------------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Sequential.h"

#include "nn/Activations.h"
#include "nn/BatchNorm2d.h"
#include "nn/Conv2d.h"
#include "support/Metrics.h"
#include "support/Profiler.h"
#include "tensor/Gemm.h"

#include <chrono>
#include <cstdio>

using namespace oppsla;

namespace {

/// Blocks nest Sequentials inside Sequentials; only the outermost forward
/// is instrumented so per-layer times partition the total instead of
/// double-counting nested spans.
thread_local int ForwardDepth = 0;

/// `nn.forward.<ii>.<layer>` counter pair (zero-padded index so the
/// registry's lexicographic order is layer order).
void recordLayerTime(size_t Index, const std::string &LayerName,
                     uint64_t Us) {
  char Key[160];
  std::snprintf(Key, sizeof(Key), "nn.forward.%02zu.%s", Index,
                LayerName.c_str());
  telemetry::counter(std::string(Key) + ".us").inc(Us);
  telemetry::counter(std::string(Key) + ".calls").inc();
}

} // namespace

void Sequential::buildFusionPlan() {
  FusionPlan.clear();
  for (size_t I = 0; I != Layers.size();) {
    FusedStep St;
    St.Begin = I;
    if (auto *Conv = dynamic_cast<Conv2d *>(Layers[I].get())) {
      size_t Next = I + 1;
      auto *Bn = Next != Layers.size()
                     ? dynamic_cast<BatchNorm2d *>(Layers[Next].get())
                     : nullptr;
      if (Bn && Bn->channels() != Conv->outChannels())
        Bn = nullptr;
      if (Bn)
        ++Next;
      const bool Relu = Next != Layers.size() &&
                        dynamic_cast<ReLU *>(Layers[Next].get()) != nullptr;
      if (Relu)
        ++Next;
      if (Next != I + 1) {
        St.Conv = Conv;
        St.Bn = Bn;
        St.Relu = Relu;
        St.Count = Next - I;
      }
    }
    I += St.Count;
    FusionPlan.push_back(St);
  }
  FusionPlanLayers = Layers.size();
}

Tensor Sequential::forward(const Tensor &In, bool Train) {
  return run(In, Train, nullptr);
}

Tensor Sequential::forwardDelta(const Tensor &In, DeltaBatch &D) {
  return run(In, /*Train=*/false, &D);
}

void Sequential::freeze() {
  for (LayerPtr &L : Layers)
    L->freeze();
}

Tensor Sequential::run(const Tensor &In, bool Train, DeltaBatch *D) {
  // Incremental forwards always take the fast kernels.
  const bool Fast = D || (!Train && !kernels::naive());
  if (Fast && FusionPlanLayers != Layers.size())
    buildFusionPlan();
  // One step of the chain: a fused conv run or a single layer.
  auto Step = [&](const FusedStep &St, const Tensor &X) {
    if (D)
      return St.Conv ? St.Conv->forwardFusedDelta(X, *D, St.Bn, St.Relu)
                     : Layers[St.Begin]->forwardDelta(X, *D);
    return St.Conv ? St.Conv->forwardFused(X, St.Bn, St.Relu)
                   : Layers[St.Begin]->forward(X, Train);
  };

  const bool Outer = ForwardDepth == 0;
  const bool Timing = Outer && telemetry::layerTimingEnabled();
  const bool Prof = Outer && telemetry::profilingEnabled();
  if (Prof && SpanNames.size() != Layers.size()) {
    // Models are cloned per worker thread, so the lazy build races
    // nothing: only the owning thread runs this forward.
    SpanNames.clear();
    SpanNames.reserve(Layers.size());
    char Key[160];
    for (size_t I = 0; I != Layers.size(); ++I) {
      std::snprintf(Key, sizeof(Key), "nn.%02zu.%s", I,
                    Layers[I]->name().c_str());
      SpanNames.push_back(telemetry::internProfileName(Key));
    }
  }
  ++ForwardDepth;
  telemetry::ProfileScope ForwardSpan(Prof ? "nn.forward" : nullptr);
  // Each step reads the previous step's output in place; the input itself
  // is never copied.
  Tensor X;
  const Tensor *Cur = &In;
  for (size_t I = 0, StepIdx = 0; I != Layers.size();) {
    // A fused step is attributed to its conv layer's span/counter; the
    // folded BatchNorm/ReLU layers simply do not appear in that run.
    telemetry::ProfileScope LayerSpan(Prof ? SpanNames[I] : nullptr);
    const auto T0 = Timing ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
    FusedStep St;
    St.Begin = I;
    if (Fast)
      St = FusionPlan[StepIdx++];
    X = Step(St, *Cur);
    Cur = &X;
    if (Timing) {
      const auto Us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - T0)
                          .count();
      recordLayerTime(I, Layers[I]->name(), static_cast<uint64_t>(Us));
    }
    I += St.Count;
  }
  --ForwardDepth;
  return Cur == &In ? Tensor(In) : std::move(X);
}

Tensor Sequential::backward(const Tensor &GradOut) {
  Tensor G = GradOut;
  for (size_t I = Layers.size(); I-- > 0;)
    G = Layers[I]->backward(G);
  return G;
}

void Sequential::collectParams(const std::string &Prefix,
                               std::vector<ParamRef> &Params) {
  for (size_t I = 0; I != Layers.size(); ++I)
    Layers[I]->collectParams(
        Prefix + "." + std::to_string(I) + "." + Layers[I]->name(), Params);
}

void Sequential::collectBuffers(
    const std::string &Prefix,
    std::vector<std::pair<std::string, Tensor *>> &Buffers) {
  for (size_t I = 0; I != Layers.size(); ++I)
    Layers[I]->collectBuffers(
        Prefix + "." + std::to_string(I) + "." + Layers[I]->name(), Buffers);
}

std::vector<ParamRef> Sequential::parameters() {
  std::vector<ParamRef> Params;
  collectParams("net", Params);
  return Params;
}

std::vector<std::pair<std::string, Tensor *>> Sequential::buffers() {
  std::vector<std::pair<std::string, Tensor *>> Buffers;
  collectBuffers("net", Buffers);
  return Buffers;
}
