//===- nn/Conv2d.cpp - 2-D convolution layer -------------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Conv2d.h"

#include "nn/BatchNorm2d.h"
#include "nn/Init.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "tensor/Gemm.h"
#include "tensor/TensorOps.h"

#include <cmath>
#include <cstring>

using namespace oppsla;

Conv2d::Conv2d(size_t InC, size_t OutC, size_t Kernel, size_t Stride,
               size_t Pad, Rng &R, bool HasBias)
    : InC(InC), OutC(OutC), Kernel(Kernel), Stride(Stride), Pad(Pad),
      HasBias(HasBias), Weight({OutC, InC * Kernel * Kernel}),
      WeightGrad({OutC, InC * Kernel * Kernel}), Bias({OutC}),
      BiasGrad({OutC}) {
  kaimingNormal(Weight, /*FanIn=*/InC * Kernel * Kernel, R);
}

Tensor Conv2d::prepareForward(const Tensor &In, bool Train, size_t &N,
                              size_t &OH, size_t &OW, Tensor *&Cols) {
  assert(In.rank() == 4 && In.dim(1) == InC && "conv input shape mismatch");
  N = In.dim(0);
  const size_t H = In.dim(2), W = In.dim(3);
  OH = convOutSize(H, Kernel, Stride, Pad);
  OW = convOutSize(W, Kernel, Stride, Pad);
  const size_t Rows = InC * Kernel * Kernel;
  const size_t ColsN = N * OH * OW;

  Cols = Train ? &CachedCols : &ScratchCols;
  noteScratchRealloc(Cols->ensureShape({Rows, ColsN}));
  im2col(In, Kernel, Kernel, Stride, Pad, *Cols);
  if (Train) {
    CachedN = N;
    CachedH = H;
    CachedW = W;
  }
  return Tensor({N, OutC, OH, OW});
}

GemmEpilogue Conv2d::fastEpilogue(const BatchNorm2d *Bn, bool Relu) {
  if (!Frozen || PackedWeight.empty()) {
    const size_t K = Weight.dim(1);
    PackedWeight.resize(gemmPackedSize(OutC, K));
    gemmPackA(Weight.data(), OutC, K, PackedWeight.data());
  }
  GemmEpilogue Ep;
  Ep.Bias = HasBias ? Bias.data() : nullptr;
  if (Bn) {
    if (!Frozen || FoldedBn != Bn) {
      Bn->inferenceAffine(FusedScale, FusedShift);
      FoldedBn = Bn;
    }
    Ep.Scale = FusedScale.data();
    Ep.Shift = FusedShift.data();
  }
  Ep.Relu = Relu;
  return Ep;
}

void Conv2d::noteScratchRealloc(bool Grew) {
  if (!Grew)
    return;
  ++ScratchReallocCount;
  telemetry::counter("nn.conv.scratch.reallocs").inc();
}

Tensor Conv2d::forward(const Tensor &In, bool Train) {
  // Fast inference: packed GEMM scatters straight into NCHW with the bias
  // folded into the tile store.
  if (!Train && !kernels::naive())
    return forwardFused(In, /*Bn=*/nullptr, /*Relu=*/false);

  size_t N, OH, OW;
  Tensor *Cols = nullptr;
  Tensor Out = prepareForward(In, Train, N, OH, OW, Cols);
  const size_t ColsN = N * OH * OW;

  // Reference path (training, and inference under --naive-kernels):
  // GEMM {OutC, Rows} x {Rows, N*OH*OW}, then scatter + bias.
  noteScratchRealloc(ScratchOut.ensureShape({OutC, ColsN}));
  matmul(Weight, *Cols, ScratchOut);

  // Scatter {OutC, N*OH*OW} into NCHW (plus bias). Column index encodes
  // (B, Oi, Oj) as (B*OH + Oi)*OW + Oj.
  const size_t Plane = OH * OW;
  for (size_t Oc = 0; Oc != OutC; ++Oc) {
    const float B = HasBias ? Bias[Oc] : 0.0f;
    const float *Src = ScratchOut.data() + Oc * ColsN;
    for (size_t Bn = 0; Bn != N; ++Bn) {
      float *Dst = Out.data() + (Bn * OutC + Oc) * Plane;
      const float *SrcB = Src + Bn * Plane;
      for (size_t I = 0; I != Plane; ++I)
        Dst[I] = SrcB[I] + B;
    }
  }
  return Out;
}

Tensor Conv2d::forwardFused(const Tensor &In, const BatchNorm2d *Bn,
                            bool Relu) {
  assert(!kernels::naive() && "fused forward requires fast kernels");
  assert((!Bn || Bn->channels() == OutC) && "fused batchnorm channel count");
  size_t N, OH, OW;
  Tensor *Cols = nullptr;
  Tensor Out = prepareForward(In, /*Train=*/false, N, OH, OW, Cols);
  const GemmEpilogue Ep = fastEpilogue(Bn, Relu);
  gemmPackedConvOut(PackedWeight.data(), Cols->data(), Out.data(), OutC,
                    InC * Kernel * Kernel, N, OH * OW, Ep);
  return Out;
}

Tensor Conv2d::forwardFusedDelta(const Tensor &In, DeltaBatch &D,
                                 const BatchNorm2d *Bn, bool Relu) {
  assert(In.rank() == 4 && In.dim(1) == InC && "conv input shape mismatch");
  assert(D.Items.size() == In.dim(0) && "one dirty region per batch item");
  const size_t OH = convOutSize(In.dim(2), Kernel, Stride, Pad);
  const size_t OW = convOutSize(In.dim(3), Kernel, Stride, Pad);
  D.mapWindow(Kernel, Stride, Pad, OH, OW);
  Tensor Out = D.allFull() ? forwardFused(In, Bn, Relu)
                           : forwardPatches(In, D, Bn, Relu, OH, OW);
  if (D.NewBase != DeltaBatch::NoBase) {
    const size_t Map = OutC * OH * OW;
    Base.ensureShape({1, OutC, OH, OW});
    std::memcpy(Base.data(), Out.data() + D.NewBase * Map,
                Map * sizeof(float));
  }
  return Out;
}

Tensor Conv2d::forwardPatches(const Tensor &In, const DeltaBatch &D,
                              const BatchNorm2d *Bn, bool Relu, size_t OH,
                              size_t OW) {
  const size_t N = In.dim(0), H = In.dim(2), W = In.dim(3);
  const size_t Plane = OH * OW, Map = OutC * Plane;
  assert(Base.numel() == Map && "incremental forward without a base");
  // Every item starts as a copy of the base output; the recomputed
  // rectangles (the whole map of a Full item) are overwritten below.
  std::vector<float> Init;
  Init.reserve(N * Map);
  for (size_t B = 0; B != N; ++B)
    Init.insert(Init.end(), Base.vec().begin(), Base.vec().end());
  Tensor Out({N, OutC, OH, OW}, std::move(Init));
  PatchRects.clear();
  size_t NCols = 0;
  for (size_t B = 0; B != N; ++B) {
    const DirtyRegion &R = D.Items[B];
    if (R.Full)
      PatchRects.push_back({B, {0, OH, 0, OW}});
    else
      for (const DirtyRect &Rc : R.Rects)
        PatchRects.push_back({B, Rc});
  }
  for (const PatchRect &P : PatchRects)
    NCols += (P.Rect.R1 - P.Rect.R0) * (P.Rect.C1 - P.Rect.C0);
  if (NCols == 0)
    return Out;

  // im2col restricted to the recomputed pixels, rectangle by rectangle:
  // each patch column holds exactly the values (zero padding included) of
  // its pixel's column in the full im2col, so the GEMM runs the same fma
  // chain per output. A rectangle's receptive field is first copied into
  // a zero-bordered window, so the gather itself has no bounds tests.
  const size_t K = InC * Kernel * Kernel;
  PatchCols.resize(K * NCols);
  size_t Col0 = 0;
  for (const PatchRect &P : PatchRects) {
    const size_t RH = P.Rect.R1 - P.Rect.R0, RW = P.Rect.C1 - P.Rect.C0;
    const size_t WinH = (RH - 1) * Stride + Kernel;
    const size_t WinW = (RW - 1) * Stride + Kernel;
    // Window element (Wi, Wj) is input (Top + Wi - Pad, Left + Wj - Pad).
    const size_t Top = P.Rect.R0 * Stride, Left = P.Rect.C0 * Stride;
    const size_t WjLo = Left < Pad ? Pad - Left : 0;
    const size_t WjHi = std::min(WinW, W + Pad - Left);
    PatchWindow.assign(InC * WinH * WinW, 0.0f);
    for (size_t Ch = 0; Ch != InC; ++Ch) {
      const float *Src = In.data() + (P.Item * InC + Ch) * H * W;
      for (size_t Wi = 0; Wi != WinH; ++Wi) {
        const size_t Ii = Top + Wi;
        if (Ii < Pad || Ii - Pad >= H)
          continue;
        const float *Row = Src + (Ii - Pad) * W + Left - Pad;
        float *Dst = PatchWindow.data() + (Ch * WinH + Wi) * WinW;
        for (size_t Wj = WjLo; Wj < WjHi; ++Wj)
          Dst[Wj] = Row[Wj];
      }
    }
    PatchOffsets.clear();
    for (size_t Oi = 0; Oi != RH; ++Oi)
      for (size_t Oj = 0; Oj != RW; ++Oj)
        PatchOffsets.push_back(Oi * Stride * WinW + Oj * Stride);
    for (size_t Ch = 0; Ch != InC; ++Ch)
      for (size_t Ki = 0; Ki != Kernel; ++Ki)
        for (size_t Kj = 0; Kj != Kernel; ++Kj) {
          const float *Src =
              PatchWindow.data() + (Ch * WinH + Ki) * WinW + Kj;
          float *Dst = PatchCols.data() +
                       ((Ch * Kernel + Ki) * Kernel + Kj) * NCols + Col0;
          for (size_t J = 0; J != RH * RW; ++J)
            Dst[J] = Src[PatchOffsets[J]];
        }
    Col0 += RH * RW;
  }

  const GemmEpilogue Ep = fastEpilogue(Bn, Relu);
  PatchOut.resize(OutC * NCols);
  gemmPacked(PackedWeight.data(), PatchCols.data(), PatchOut.data(), OutC, K,
             NCols, Ep);
  Col0 = 0;
  for (const PatchRect &P : PatchRects) {
    const size_t RW = P.Rect.C1 - P.Rect.C0;
    for (size_t Oc = 0; Oc != OutC; ++Oc) {
      const float *Src = PatchOut.data() + Oc * NCols + Col0;
      float *Dst = Out.data() + (P.Item * OutC + Oc) * Plane;
      for (size_t Oi = P.Rect.R0; Oi != P.Rect.R1; ++Oi, Src += RW)
        std::memcpy(Dst + Oi * OW + P.Rect.C0, Src, RW * sizeof(float));
    }
    Col0 += (P.Rect.R1 - P.Rect.R0) * RW;
  }
  return Out;
}

Tensor Conv2d::backward(const Tensor &GradOut) {
  assert(CachedN != 0 && "backward without cached forward");
  const size_t N = CachedN, H = CachedH, W = CachedW;
  const size_t OH = convOutSize(H, Kernel, Stride, Pad);
  const size_t OW = convOutSize(W, Kernel, Stride, Pad);
  const size_t Rows = InC * Kernel * Kernel;
  const size_t ColsN = N * OH * OW;
  assert(GradOut.rank() == 4 && GradOut.dim(0) == N &&
         GradOut.dim(1) == OutC && GradOut.dim(2) == OH &&
         GradOut.dim(3) == OW && "conv grad shape mismatch");

  // Gather NCHW grad into the {OutC, N*OH*OW} GEMM layout.
  Tensor Grad2d({OutC, ColsN});
  const size_t Plane = OH * OW;
  for (size_t Oc = 0; Oc != OutC; ++Oc) {
    float *Dst = Grad2d.data() + Oc * ColsN;
    for (size_t Bn = 0; Bn != N; ++Bn) {
      const float *Src = GradOut.data() + (Bn * OutC + Oc) * Plane;
      float *DstB = Dst + Bn * Plane;
      for (size_t I = 0; I != Plane; ++I)
        DstB[I] = Src[I];
    }
  }

  // dW += Grad2d * Cols^T; db += row sums of Grad2d.
  Tensor WG({OutC, Rows});
  matmulTransposedB(Grad2d, CachedCols, WG);
  WeightGrad += WG;
  if (HasBias) {
    for (size_t Oc = 0; Oc != OutC; ++Oc) {
      const float *Row = Grad2d.data() + Oc * ColsN;
      float Acc = 0.0f;
      for (size_t I = 0; I != ColsN; ++I)
        Acc += Row[I];
      BiasGrad[Oc] += Acc;
    }
  }

  // dX = col2im(W^T * Grad2d).
  Tensor GradCols({Rows, ColsN});
  matmulTransposedA(Weight, Grad2d, GradCols);
  Tensor GradIn({N, InC, H, W});
  col2im(GradCols, N, InC, H, W, Kernel, Kernel, Stride, Pad, GradIn);
  return GradIn;
}

void Conv2d::collectParams(const std::string &Prefix,
                           std::vector<ParamRef> &Params) {
  Params.push_back({Prefix + ".weight", &Weight, &WeightGrad});
  if (HasBias)
    Params.push_back({Prefix + ".bias", &Bias, &BiasGrad});
}
