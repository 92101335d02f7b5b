//===- nn/Blocks.cpp - Composite CNN building blocks ------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Blocks.h"

#include "nn/Activations.h"
#include "nn/BatchNorm2d.h"
#include "nn/Conv2d.h"
#include "support/Rng.h"

using namespace oppsla;

LayerPtr oppsla::convBnRelu(size_t InC, size_t OutC, size_t Kernel,
                            size_t Stride, size_t Pad, Rng &R) {
  auto Seq = std::make_unique<Sequential>();
  Seq->emplace<Conv2d>(InC, OutC, Kernel, Stride, Pad, R, /*HasBias=*/false);
  Seq->emplace<BatchNorm2d>(OutC);
  Seq->emplace<ReLU>();
  return Seq;
}

//===----------------------------------------------------------------------===//
// ResidualBlock
//===----------------------------------------------------------------------===//

ResidualBlock::ResidualBlock(size_t InC, size_t OutC, size_t Stride, Rng &R) {
  Body.emplace<Conv2d>(InC, OutC, 3, Stride, 1, R, /*HasBias=*/false);
  Body.emplace<BatchNorm2d>(OutC);
  Body.emplace<ReLU>();
  Body.emplace<Conv2d>(OutC, OutC, 3, 1, 1, R, /*HasBias=*/false);
  Body.emplace<BatchNorm2d>(OutC);
  if (InC != OutC || Stride != 1) {
    Proj = std::make_unique<Sequential>();
    Proj->emplace<Conv2d>(InC, OutC, 1, Stride, 0, R, /*HasBias=*/false);
    Proj->emplace<BatchNorm2d>(OutC);
  }
}

Tensor ResidualBlock::forward(const Tensor &In, bool Train) {
  return run(In, Train, nullptr);
}

Tensor ResidualBlock::forwardDelta(const Tensor &In, DeltaBatch &D) {
  return run(In, /*Train=*/false, &D);
}

void ResidualBlock::freeze() {
  Body.freeze();
  if (Proj)
    Proj->freeze();
}

Tensor ResidualBlock::run(const Tensor &In, bool Train, DeltaBatch *D) {
  // Both branches are exact everywhere, so the sum and ReLU below run in
  // full and only the dirty regions need merging: the output can differ
  // from the base wherever either branch does.
  DeltaBatch SkipD;
  if (D)
    SkipD = *D;
  Tensor F = D ? Body.forwardDelta(In, *D) : Body.forward(In, Train);
  Tensor Skip = !Proj ? In
                : D   ? Proj->forwardDelta(In, SkipD)
                      : Proj->forward(In, Train);
  if (D)
    D->unite(SkipD);
  assert(F.shape() == Skip.shape() && "residual shape mismatch");
  F += Skip;
  if (Train)
    CachedSum = F;
  // Final ReLU applied in place on the sum.
  float *Data = F.data();
  for (size_t I = 0, E = F.numel(); I != E; ++I)
    Data[I] = Data[I] > 0.0f ? Data[I] : 0.0f;
  return F;
}

Tensor ResidualBlock::backward(const Tensor &GradOut) {
  assert(!CachedSum.empty() && "backward without cached forward");
  assert(GradOut.shape() == CachedSum.shape() && "residual grad shape");
  // Grad through the final ReLU on the cached pre-activation sum.
  Tensor G(GradOut.shape());
  const float *Dy = GradOut.data();
  const float *S = CachedSum.data();
  float *Gd = G.data();
  for (size_t I = 0, E = G.numel(); I != E; ++I)
    Gd[I] = S[I] > 0.0f ? Dy[I] : 0.0f;

  Tensor GradIn = Body.backward(G);
  if (Proj) {
    GradIn += Proj->backward(G);
    return GradIn;
  }
  GradIn += G;
  return GradIn;
}

void ResidualBlock::collectParams(const std::string &Prefix,
                                  std::vector<ParamRef> &Params) {
  Body.collectParams(Prefix + ".body", Params);
  if (Proj)
    Proj->collectParams(Prefix + ".proj", Params);
}

void ResidualBlock::collectBuffers(
    const std::string &Prefix,
    std::vector<std::pair<std::string, Tensor *>> &Buffers) {
  Body.collectBuffers(Prefix + ".body", Buffers);
  if (Proj)
    Proj->collectBuffers(Prefix + ".proj", Buffers);
}

//===----------------------------------------------------------------------===//
// InceptionBlock
//===----------------------------------------------------------------------===//

InceptionBlock::InceptionBlock(size_t InC, size_t C1x1, size_t C3x3,
                               size_t C5x5, Rng &R)
    : OutC(C1x1 + C3x3 + C5x5) {
  // Branch 1: 1x1.
  auto B1 = std::make_unique<Sequential>();
  B1->add(convBnRelu(InC, C1x1, 1, 1, 0, R));
  Branches.push_back(std::move(B1));
  BranchChannels.push_back(C1x1);

  // Branch 2: 1x1 reduce then 3x3.
  const size_t Red3 = std::max<size_t>(1, C3x3 / 2);
  auto B2 = std::make_unique<Sequential>();
  B2->add(convBnRelu(InC, Red3, 1, 1, 0, R));
  B2->add(convBnRelu(Red3, C3x3, 3, 1, 1, R));
  Branches.push_back(std::move(B2));
  BranchChannels.push_back(C3x3);

  // Branch 3: 1x1 reduce then 5x5.
  const size_t Red5 = std::max<size_t>(1, C5x5 / 2);
  auto B3 = std::make_unique<Sequential>();
  B3->add(convBnRelu(InC, Red5, 1, 1, 0, R));
  B3->add(convBnRelu(Red5, C5x5, 5, 1, 2, R));
  Branches.push_back(std::move(B3));
  BranchChannels.push_back(C5x5);
}

Tensor InceptionBlock::forward(const Tensor &In, bool Train) {
  return run(In, Train, nullptr);
}

Tensor InceptionBlock::forwardDelta(const Tensor &In, DeltaBatch &D) {
  return run(In, /*Train=*/false, &D);
}

void InceptionBlock::freeze() {
  for (auto &Branch : Branches)
    Branch->freeze();
}

Tensor InceptionBlock::run(const Tensor &In, bool Train, DeltaBatch *D) {
  assert(In.rank() == 4 && "inception expects NCHW");
  const size_t N = In.dim(0), H = In.dim(2), W = In.dim(3);
  Tensor Out({N, OutC, H, W});
  const size_t Plane = H * W;
  // Every branch starts from the input's dirty region; the concatenation
  // can differ from the base wherever any branch does.
  DeltaBatch InD;
  if (D) {
    InD = *D;
    for (DirtyRegion &R : D->Items)
      R = DirtyRegion{/*Full=*/false, {}};
  }
  size_t ChanBase = 0;
  for (size_t BIdx = 0; BIdx != Branches.size(); ++BIdx) {
    DeltaBatch BranchD = InD;
    Tensor BOut = D ? Branches[BIdx]->forwardDelta(In, BranchD)
                    : Branches[BIdx]->forward(In, Train);
    if (D)
      D->unite(BranchD);
    const size_t BC = BranchChannels[BIdx];
    assert(BOut.dim(1) == BC && BOut.dim(2) == H && BOut.dim(3) == W &&
           "inception branch output shape");
    for (size_t B = 0; B != N; ++B) {
      const float *Src = BOut.data() + B * BC * Plane;
      float *Dst = Out.data() + (B * OutC + ChanBase) * Plane;
      for (size_t I = 0, E = BC * Plane; I != E; ++I)
        Dst[I] = Src[I];
    }
    ChanBase += BC;
  }
  return Out;
}

Tensor InceptionBlock::backward(const Tensor &GradOut) {
  assert(GradOut.rank() == 4 && GradOut.dim(1) == OutC &&
         "inception grad shape");
  const size_t N = GradOut.dim(0), H = GradOut.dim(2), W = GradOut.dim(3);
  const size_t Plane = H * W;
  Tensor GradIn;
  size_t ChanBase = 0;
  for (size_t BIdx = 0; BIdx != Branches.size(); ++BIdx) {
    const size_t BC = BranchChannels[BIdx];
    Tensor Slice({N, BC, H, W});
    for (size_t B = 0; B != N; ++B) {
      const float *Src = GradOut.data() + (B * OutC + ChanBase) * Plane;
      float *Dst = Slice.data() + B * BC * Plane;
      for (size_t I = 0, E = BC * Plane; I != E; ++I)
        Dst[I] = Src[I];
    }
    Tensor G = Branches[BIdx]->backward(Slice);
    if (GradIn.empty())
      GradIn = std::move(G);
    else
      GradIn += G;
    ChanBase += BC;
  }
  return GradIn;
}

void InceptionBlock::collectParams(const std::string &Prefix,
                                   std::vector<ParamRef> &Params) {
  for (size_t I = 0; I != Branches.size(); ++I)
    Branches[I]->collectParams(Prefix + ".branch" + std::to_string(I),
                               Params);
}

void InceptionBlock::collectBuffers(
    const std::string &Prefix,
    std::vector<std::pair<std::string, Tensor *>> &Buffers) {
  for (size_t I = 0; I != Branches.size(); ++I)
    Branches[I]->collectBuffers(Prefix + ".branch" + std::to_string(I),
                                Buffers);
}

//===----------------------------------------------------------------------===//
// DenseLayer
//===----------------------------------------------------------------------===//

DenseLayer::DenseLayer(size_t InC, size_t Growth, Rng &R)
    : InC(InC), Growth(Growth) {
  Body.add(convBnRelu(InC, Growth, 3, 1, 1, R));
}

Tensor DenseLayer::forward(const Tensor &In, bool Train) {
  return run(In, Train, nullptr);
}

Tensor DenseLayer::forwardDelta(const Tensor &In, DeltaBatch &D) {
  return run(In, /*Train=*/false, &D);
}

void DenseLayer::freeze() { Body.freeze(); }

Tensor DenseLayer::run(const Tensor &In, bool Train, DeltaBatch *D) {
  assert(In.rank() == 4 && In.dim(1) == InC && "dense layer input shape");
  const size_t N = In.dim(0), H = In.dim(2), W = In.dim(3);
  // The output passes the input through next to the branch, so it can
  // differ from the base wherever either does.
  DeltaBatch BodyD;
  if (D)
    BodyD = *D;
  Tensor G = D ? Body.forwardDelta(In, BodyD) : Body.forward(In, Train);
  if (D)
    D->unite(BodyD);
  Tensor Out({N, InC + Growth, H, W});
  const size_t Plane = H * W;
  for (size_t B = 0; B != N; ++B) {
    const float *SrcIn = In.data() + B * InC * Plane;
    float *DstIn = Out.data() + B * (InC + Growth) * Plane;
    for (size_t I = 0, E = InC * Plane; I != E; ++I)
      DstIn[I] = SrcIn[I];
    const float *SrcG = G.data() + B * Growth * Plane;
    float *DstG = Out.data() + (B * (InC + Growth) + InC) * Plane;
    for (size_t I = 0, E = Growth * Plane; I != E; ++I)
      DstG[I] = SrcG[I];
  }
  return Out;
}

Tensor DenseLayer::backward(const Tensor &GradOut) {
  assert(GradOut.rank() == 4 && GradOut.dim(1) == InC + Growth &&
         "dense layer grad shape");
  const size_t N = GradOut.dim(0), H = GradOut.dim(2), W = GradOut.dim(3);
  const size_t Plane = H * W;
  // Split grad into the passthrough part and the branch part.
  Tensor GradPass({N, InC, H, W});
  Tensor GradBranch({N, Growth, H, W});
  for (size_t B = 0; B != N; ++B) {
    const float *Src = GradOut.data() + B * (InC + Growth) * Plane;
    float *DstP = GradPass.data() + B * InC * Plane;
    for (size_t I = 0, E = InC * Plane; I != E; ++I)
      DstP[I] = Src[I];
    const float *SrcG = GradOut.data() + (B * (InC + Growth) + InC) * Plane;
    float *DstG = GradBranch.data() + B * Growth * Plane;
    for (size_t I = 0, E = Growth * Plane; I != E; ++I)
      DstG[I] = SrcG[I];
  }
  Tensor GradIn = Body.backward(GradBranch);
  GradIn += GradPass;
  return GradIn;
}

void DenseLayer::collectParams(const std::string &Prefix,
                               std::vector<ParamRef> &Params) {
  Body.collectParams(Prefix + ".body", Params);
}

void DenseLayer::collectBuffers(
    const std::string &Prefix,
    std::vector<std::pair<std::string, Tensor *>> &Buffers) {
  Body.collectBuffers(Prefix + ".body", Buffers);
}
