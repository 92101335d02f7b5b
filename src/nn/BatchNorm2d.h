//===- nn/BatchNorm2d.h - Batch normalization ------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_BATCHNORM2D_H
#define OPPSLA_NN_BATCHNORM2D_H

#include "nn/Layer.h"

#include <vector>

namespace oppsla {

/// Per-channel batch normalization over NCHW tensors.
///
/// Training mode normalizes with batch statistics and updates running
/// mean/var with exponential momentum; inference mode uses the running
/// statistics (the mode the attack queries always hit).
class BatchNorm2d : public Layer {
public:
  explicit BatchNorm2d(size_t Channels, float Momentum = 0.1f,
                       float Eps = 1e-5f);

  Tensor forward(const Tensor &In, bool Train) override;
  /// Elementwise at inference, so the dirty region passes through
  /// unchanged; a full pass costs what copying a base output would.
  Tensor forwardDelta(const Tensor &In, DeltaBatch &) override {
    return forward(In, /*Train=*/false);
  }
  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  void collectBuffers(const std::string &Prefix,
                      std::vector<std::pair<std::string, Tensor *>> &Buffers)
      override;
  std::string name() const override { return "batchnorm2d"; }

  /// The per-channel affine form of inference-mode normalization:
  /// out = fma(in, Scale[c], Shift[c]). Both the unfused inference forward
  /// and Conv2d's fused GEMM epilogue take their coefficients from this one
  /// function, so the two paths are bit-identical by construction. Resizes
  /// the outputs to channels().
  void inferenceAffine(std::vector<float> &Scale,
                       std::vector<float> &Shift) const;

  size_t channels() const { return Channels; }
  Tensor &runningMean() { return RunningMean; }
  Tensor &runningVar() { return RunningVar; }

private:
  size_t Channels;
  float Momentum, Eps;
  Tensor Gamma, GammaGrad; ///< scale, {C}
  Tensor Beta, BetaGrad;   ///< shift, {C}
  Tensor RunningMean, RunningVar;
  // Cached training-forward state.
  Tensor CachedXHat;   ///< normalized input, same shape as In
  Tensor CachedInvStd; ///< {C}
  size_t CachedN = 0, CachedH = 0, CachedW = 0;
  // Inference scratch for the folded affine coefficients.
  std::vector<float> AffineScale, AffineShift;
};

} // namespace oppsla

#endif // OPPSLA_NN_BATCHNORM2D_H
