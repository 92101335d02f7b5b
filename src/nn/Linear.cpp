//===- nn/Linear.cpp - Fully connected layer --------------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Linear.h"

#include "nn/Init.h"
#include "support/Rng.h"
#include "tensor/Gemm.h"
#include "tensor/TensorOps.h"

using namespace oppsla;

Linear::Linear(size_t InF, size_t OutF, Rng &R)
    : InF(InF), OutF(OutF), Weight({OutF, InF}), WeightGrad({OutF, InF}),
      Bias({OutF}), BiasGrad({OutF}) {
  kaimingNormal(Weight, InF, R);
}

Tensor Linear::forward(const Tensor &In, bool Train) {
  // Accept {N, InF} or {N, C, H, W} with C*H*W == InF.
  size_t N;
  if (In.rank() == 2) {
    N = In.dim(0);
    assert(In.dim(1) == InF && "linear input feature mismatch");
  } else {
    assert(In.rank() == 4 && "linear expects rank 2 or 4 input");
    N = In.dim(0);
    assert(In.numel() / N == InF && "linear input feature mismatch");
  }
  Tensor In2d = In.reshaped({N, InF});
  if (Train)
    CachedIn = In2d;

  Tensor Out({N, OutF});
  if (!Train && !kernels::naive()) {
    // Fast inference: packed GEMM with the bias folded into the tile
    // store. With Plane == 1 the NCHW scatter degenerates to row-major
    // {N, OutF}, exactly this layer's output layout. Both paths reduce k
    // ascending through the same fma chain (fma is commutative in its
    // first two arguments), so this is bit-identical to the naive path.
    // Frozen weights are packed once; otherwise every forward repacks,
    // because the optimizer writes Weight in place between forwards.
    if (!Frozen || PackedWeight.empty()) {
      PackedWeight.resize(gemmPackedSize(OutF, InF));
      gemmPackA(Weight.data(), OutF, InF, PackedWeight.data());
    }
    ScratchInT.resize(InF * N);
    const float *InD = In2d.data();
    for (size_t I = 0; I != N; ++I)
      for (size_t K = 0; K != InF; ++K)
        ScratchInT[K * N + I] = InD[I * InF + K];
    GemmEpilogue Ep;
    Ep.Bias = Bias.data();
    gemmPackedConvOut(PackedWeight.data(), ScratchInT.data(), Out.data(),
                      /*M=*/OutF, /*K=*/InF, /*NB=*/N, /*Plane=*/1, Ep);
    return Out;
  }
  matmulTransposedB(In2d, Weight, Out);
  for (size_t I = 0; I != N; ++I) {
    float *Row = Out.data() + I * OutF;
    for (size_t J = 0; J != OutF; ++J)
      Row[J] += Bias[J];
  }
  return Out;
}

Tensor Linear::backward(const Tensor &GradOut) {
  assert(GradOut.rank() == 2 && GradOut.dim(1) == OutF &&
         "linear grad shape mismatch");
  assert(!CachedIn.empty() && "backward without cached forward");
  const size_t N = GradOut.dim(0);
  assert(CachedIn.dim(0) == N && "batch size mismatch in linear backward");

  // dW += GradOut^T * In; shape {OutF, InF}.
  Tensor WG({OutF, InF});
  matmulTransposedA(GradOut, CachedIn, WG);
  WeightGrad += WG;

  // db += column sums of GradOut.
  for (size_t I = 0; I != N; ++I) {
    const float *Row = GradOut.data() + I * OutF;
    for (size_t J = 0; J != OutF; ++J)
      BiasGrad[J] += Row[J];
  }

  // dX = GradOut * W; shape {N, InF}.
  Tensor GradIn({N, InF});
  matmul(GradOut, Weight, GradIn);
  return GradIn;
}

void Linear::collectParams(const std::string &Prefix,
                           std::vector<ParamRef> &Params) {
  Params.push_back({Prefix + ".weight", &Weight, &WeightGrad});
  Params.push_back({Prefix + ".bias", &Bias, &BiasGrad});
}
