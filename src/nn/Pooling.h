//===- nn/Pooling.h - Spatial pooling layers -------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_POOLING_H
#define OPPSLA_NN_POOLING_H

#include "nn/Layer.h"

namespace oppsla {

/// Max pooling with a square window; stride defaults to the window size.
class MaxPool2d : public Layer {
public:
  explicit MaxPool2d(size_t Window, size_t Stride = 0)
      : Window(Window), Stride(Stride ? Stride : Window) {}

  Tensor forward(const Tensor &In, bool Train) override;
  /// Runs the window loop in full, which at the zoo's map sizes costs
  /// little more than copying a kept base output would, and maps the dirty
  /// region through the window.
  Tensor forwardDelta(const Tensor &In, DeltaBatch &D) override;
  Tensor backward(const Tensor &GradOut) override;
  std::string name() const override { return "maxpool2d"; }

private:
  size_t Window, Stride;
  std::vector<size_t> CachedArgmax; ///< flat input index of each output max
  Shape CachedInShape;
};

/// Average pooling with a square window; stride defaults to the window size.
class AvgPool2d : public Layer {
public:
  explicit AvgPool2d(size_t Window, size_t Stride = 0)
      : Window(Window), Stride(Stride ? Stride : Window) {}

  Tensor forward(const Tensor &In, bool Train) override;
  Tensor forwardDelta(const Tensor &In, DeltaBatch &D) override;
  Tensor backward(const Tensor &GradOut) override;
  std::string name() const override { return "avgpool2d"; }

private:
  size_t Window, Stride;
  Shape CachedInShape;
};

/// Global average pooling: {N, C, H, W} -> {N, C}.
class GlobalAvgPool : public Layer {
public:
  Tensor forward(const Tensor &In, bool Train) override;
  Tensor backward(const Tensor &GradOut) override;
  std::string name() const override { return "global_avg_pool"; }

private:
  Shape CachedInShape;
};

} // namespace oppsla

#endif // OPPSLA_NN_POOLING_H
