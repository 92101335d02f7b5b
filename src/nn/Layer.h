//===- nn/Layer.h - Neural network layer interface -------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Layer interface of the from-scratch CNN substrate. Layers implement
/// explicit forward/backward passes (no autograd tape): forward caches what
/// backward needs, backward consumes the cached state and produces the input
/// gradient while accumulating parameter gradients.
///
/// This substrate replaces the PyTorch models the paper attacks. It only
/// needs to be fast at batch-1 inference (the attack loop) and correct at
/// small-batch training (building the victim classifiers).
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_LAYER_H
#define OPPSLA_NN_LAYER_H

#include "nn/Incremental.h"
#include "tensor/Tensor.h"

#include <memory>
#include <string>
#include <vector>

namespace oppsla {

/// A named (value, gradient) parameter pair exposed by a layer.
/// Pointers remain valid for the lifetime of the owning layer.
struct ParamRef {
  std::string Name;
  Tensor *Value;
  Tensor *Grad;
};

/// Abstract base for all layers.
class Layer {
public:
  virtual ~Layer();

  /// Runs the layer on \p In. When \p Train is true the layer caches
  /// whatever backward() needs and uses training behaviour (batch stats,
  /// active dropout, ...).
  virtual Tensor forward(const Tensor &In, bool Train) = 0;

  /// Incremental inference forward (DESIGN.md §16). \p D holds, per batch
  /// item, where \p In may differ from the base image's input to this
  /// layer; on return it holds where the output may differ from the base
  /// output. The result is bit-identical to forward(In, false). Layers
  /// that keep base activations record item D.NewBase's output. The
  /// default runs forward() and marks every item Full, which is correct
  /// for any layer.
  virtual Tensor forwardDelta(const Tensor &In, DeltaBatch &D);

  /// Propagates \p GradOut (d loss / d output) to the input, accumulating
  /// parameter gradients. Must be called after a forward(Train=true) with
  /// matching shapes.
  virtual Tensor backward(const Tensor &GradOut) = 0;

  /// Appends this layer's parameters (if any) to \p Params, prefixing their
  /// names with \p Prefix.
  virtual void collectParams(const std::string &Prefix,
                             std::vector<ParamRef> &Params);

  /// Appends non-learned persistent state (e.g. batchnorm running stats)
  /// that serialization must carry but optimizers must not touch.
  virtual void collectBuffers(const std::string &Prefix,
                              std::vector<std::pair<std::string, Tensor *>>
                                  &Buffers);

  /// Declares the weights fixed for the rest of the layer's life, so
  /// inference may cache forms derived from them (packed GEMM panels,
  /// folded batchnorm) instead of rebuilding them every forward. Only
  /// inference-owned models are frozen: training writes weights through
  /// ParamRef and relies on the rebuild. Composite layers forward the
  /// call to their children; the default does nothing.
  virtual void freeze() {}

  /// Human-readable layer name for debugging and serialization.
  virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Zeroes the gradients of all parameters in \p Params.
void zeroGrads(const std::vector<ParamRef> &Params);

} // namespace oppsla

#endif // OPPSLA_NN_LAYER_H
