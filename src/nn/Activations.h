//===- nn/Activations.h - Elementwise activation layers --------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_ACTIVATIONS_H
#define OPPSLA_NN_ACTIVATIONS_H

#include "nn/Layer.h"

namespace oppsla {

/// Rectified linear unit.
class ReLU : public Layer {
public:
  Tensor forward(const Tensor &In, bool Train) override;
  /// Elementwise, so the dirty region passes through unchanged; a full
  /// pass costs what copying a base output would.
  Tensor forwardDelta(const Tensor &In, DeltaBatch &) override {
    return forward(In, /*Train=*/false);
  }
  Tensor backward(const Tensor &GradOut) override;
  std::string name() const override { return "relu"; }

private:
  Tensor CachedMask; ///< 1 where the input was positive
};

/// Leaky rectified linear unit with fixed negative slope.
class LeakyReLU : public Layer {
public:
  explicit LeakyReLU(float Slope = 0.1f) : Slope(Slope) {}

  Tensor forward(const Tensor &In, bool Train) override;
  Tensor backward(const Tensor &GradOut) override;
  std::string name() const override { return "leaky_relu"; }

private:
  float Slope;
  Tensor CachedIn;
};

/// Hyperbolic tangent.
class Tanh : public Layer {
public:
  Tensor forward(const Tensor &In, bool Train) override;
  Tensor backward(const Tensor &GradOut) override;
  std::string name() const override { return "tanh"; }

private:
  Tensor CachedOut;
};

} // namespace oppsla

#endif // OPPSLA_NN_ACTIVATIONS_H
