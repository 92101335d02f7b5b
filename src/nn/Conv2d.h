//===- nn/Conv2d.h - 2-D convolution layer ---------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_CONV2D_H
#define OPPSLA_NN_CONV2D_H

#include "nn/Layer.h"

#include <vector>

namespace oppsla {

class BatchNorm2d;
class Rng;
struct GemmEpilogue;

/// 2-D convolution over NCHW tensors, lowered to GEMM via im2col.
///
/// Weight shape is {OutC, InC * KH * KW} (each output channel is one GEMM
/// row); bias is {OutC}. Kaiming-normal initialization.
class Conv2d : public Layer {
public:
  Conv2d(size_t InC, size_t OutC, size_t Kernel, size_t Stride, size_t Pad,
         Rng &R, bool HasBias = true);

  Tensor forward(const Tensor &In, bool Train) override;

  /// Inference-only fused forward: conv + optional BatchNorm affine +
  /// optional ReLU in a single packed-GEMM pass (the epilogue runs while
  /// each output tile is still in registers). Only called by Sequential's
  /// fusion plan when fast kernels are enabled; bit-identical to running
  /// the unfused layers in sequence (DESIGN.md §12).
  Tensor forwardFused(const Tensor &In, const BatchNorm2d *Bn, bool Relu);

  /// Incremental forms of forward() and forwardFused() (DESIGN.md §16):
  /// recompute only the output pixels whose window meets a dirty input
  /// rectangle, as one patch GEMM over every item of the batch, and copy
  /// the rest from the base output kept by this layer. Fast kernels only.
  Tensor forwardDelta(const Tensor &In, DeltaBatch &D) override {
    return forwardFusedDelta(In, D, nullptr, false);
  }
  Tensor forwardFusedDelta(const Tensor &In, DeltaBatch &D,
                           const BatchNorm2d *Bn, bool Relu);

  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  void freeze() override { Frozen = true; }
  std::string name() const override { return "conv2d"; }

  size_t inChannels() const { return InC; }
  size_t outChannels() const { return OutC; }
  size_t kernel() const { return Kernel; }
  size_t stride() const { return Stride; }
  size_t padding() const { return Pad; }

  Tensor &weight() { return Weight; }
  Tensor &bias() { return Bias; }

  /// How many times the inference scratch buffers had to grow. With
  /// capacity-based reuse this stays at the high-water mark count (engine
  /// full batches + one tail size allocate at most twice), not once per
  /// batch-size change; regression-tested in tests/nn/LayerBehaviorTest.
  size_t scratchReallocs() const { return ScratchReallocCount; }

private:
  /// An output rectangle of one batch item that a patch GEMM recomputes.
  struct PatchRect {
    size_t Item;
    DirtyRect Rect;
  };

  /// im2col into \p Cols (capacity-reusing) and return the {N,OutC,OH,OW}
  /// output tensor shell shared by all forward flavors.
  Tensor prepareForward(const Tensor &In, bool Train, size_t &N, size_t &OH,
                        size_t &OW, Tensor *&Cols);
  /// The packed weight and the fused epilogue for a fast forward; packs
  /// and folds \p Bn once when frozen, every call otherwise.
  GemmEpilogue fastEpilogue(const BatchNorm2d *Bn, bool Relu);
  /// The patch-GEMM half of forwardFusedDelta: items of \p D that are not
  /// Full start as a copy of Base.
  Tensor forwardPatches(const Tensor &In, const DeltaBatch &D,
                        const BatchNorm2d *Bn, bool Relu, size_t OH,
                        size_t OW);
  /// Counts a scratch growth event in the layer and in telemetry.
  void noteScratchRealloc(bool Grew);

  size_t InC, OutC, Kernel, Stride, Pad;
  bool HasBias;
  Tensor Weight, WeightGrad;
  Tensor Bias, BiasGrad;
  // Cached forward state for backward.
  Tensor CachedCols; ///< im2col matrix of the last training input
  size_t CachedN = 0, CachedH = 0, CachedW = 0;
  // Scratch reused across inference calls; resized capacity-preserving so
  // alternating batch shapes do not thrash the allocator.
  Tensor ScratchCols, ScratchOut;
  size_t ScratchReallocCount = 0;
  // Fast-kernel state: Weight packed into MR-row panels and the folded
  // BatchNorm affine of the fused epilogue. Rebuilt every forward unless
  // frozen, because the optimizer writes Weight in place between forwards.
  bool Frozen = false;
  std::vector<float> PackedWeight;
  const BatchNorm2d *FoldedBn = nullptr;
  std::vector<float> FusedScale, FusedShift;
  // Incremental inference: the base image's output {1,OutC,OH,OW} and the
  // patch GEMM's scratch.
  Tensor Base;
  std::vector<PatchRect> PatchRects;
  std::vector<size_t> PatchOffsets;
  std::vector<float> PatchWindow, PatchCols, PatchOut;
};

} // namespace oppsla

#endif // OPPSLA_NN_CONV2D_H
