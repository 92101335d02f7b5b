//===- nn/Sequential.h - Layer composition ---------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_SEQUENTIAL_H
#define OPPSLA_NN_SEQUENTIAL_H

#include "nn/Layer.h"

#include <utility>

namespace oppsla {

class BatchNorm2d;
class Conv2d;

/// A chain of layers; itself a Layer so blocks can nest.
///
/// Inference forwards with fast kernels enabled run through a lazily built
/// fusion plan: every direct Conv2d -> [BatchNorm2d] -> [ReLU] run executes
/// as one Conv2d::forwardFused call (the GEMM epilogue applies the
/// BatchNorm affine and ReLU in registers), bit-identical to running the
/// layers in sequence. Blocks nest Sequentials, so the plan covers every
/// zoo architecture without the blocks knowing about fusion.
class Sequential : public Layer {
public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential &add(LayerPtr L) {
    assert(L && "null layer");
    Layers.push_back(std::move(L));
    return *this;
  }

  /// Constructs a layer of type \p T in place and returns a reference to it.
  template <typename T, typename... Args> T &emplace(Args &&...As) {
    auto L = std::make_unique<T>(std::forward<Args>(As)...);
    T &Ref = *L;
    Layers.push_back(std::move(L));
    return Ref;
  }

  size_t size() const { return Layers.size(); }
  Layer &layer(size_t I) {
    assert(I < Layers.size() && "layer index out of range");
    return *Layers[I];
  }

  Tensor forward(const Tensor &In, bool Train) override;
  /// Chains the layers' incremental forwards through the same fusion plan
  /// as a fast inference forward.
  Tensor forwardDelta(const Tensor &In, DeltaBatch &D) override;
  void freeze() override;
  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  void collectBuffers(const std::string &Prefix,
                      std::vector<std::pair<std::string, Tensor *>> &Buffers)
      override;
  std::string name() const override { return "sequential"; }

  /// Convenience: all parameters with a fresh prefix.
  std::vector<ParamRef> parameters();
  /// Convenience: all persistent buffers with a fresh prefix.
  std::vector<std::pair<std::string, Tensor *>> buffers();

private:
  /// One execution step of the fusion plan: either a single plain layer
  /// (Conv == nullptr, Count == 1) or a fused conv run consuming Count
  /// layers starting at Begin.
  struct FusedStep {
    size_t Begin = 0;
    size_t Count = 1;
    Conv2d *Conv = nullptr;
    BatchNorm2d *Bn = nullptr;
    bool Relu = false;
  };

  /// forward() when \p D is null, forwardDelta() otherwise; one loop so
  /// both carry the same profiler spans and layer timing.
  Tensor run(const Tensor &In, bool Train, DeltaBatch *D);

  /// Rebuilds FusionPlan to tile [0, Layers.size()). Lazily invoked on the
  /// first fast-kernel inference forward and whenever the layer count
  /// changed; models are cloned per worker thread, so the build races
  /// nothing.
  void buildFusionPlan();

  std::vector<LayerPtr> Layers;
  std::vector<FusedStep> FusionPlan;
  size_t FusionPlanLayers = static_cast<size_t>(-1);
  /// Interned `nn.<ii>.<layer>` span names for the profiler, built lazily
  /// on the first profiled forward (index-aligned with Layers).
  std::vector<const char *> SpanNames;
};

} // namespace oppsla

#endif // OPPSLA_NN_SEQUENTIAL_H
