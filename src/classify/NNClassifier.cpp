//===- classify/NNClassifier.cpp - nn::Sequential adapter --------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classify/NNClassifier.h"

#include "tensor/Gemm.h"
#include "tensor/TensorOps.h"

#include <cstring>

using namespace oppsla;

namespace {

/// Queries with more changed pixels than this run in full: the cones of a
/// few pixels already cover most of a small map after two or three
/// layers, and diffing stops early once the count is exceeded.
constexpr size_t MaxDeltaPixels = 8;

} // namespace

NNClassifier::NNClassifier(std::unique_ptr<Sequential> Model,
                           size_t NumClasses, std::string Name)
    : Model(std::move(Model)), Classes(NumClasses),
      ModelName(std::move(Name)) {
  assert(this->Model && "null model");
  this->Model->freeze();
}

std::unique_ptr<Classifier> NNClassifier::clone() const {
  if (!Builder)
    return nullptr;
  std::unique_ptr<Sequential> Fresh = Builder();
  assert(Fresh && "model builder returned null");

  // parameters()/buffers() are non-const traversals but do not mutate the
  // model; the source stays logically untouched.
  Sequential &Src = *Model;
  const std::vector<ParamRef> SrcParams = Src.parameters();
  const std::vector<ParamRef> DstParams = Fresh->parameters();
  assert(SrcParams.size() == DstParams.size() &&
         "builder architecture mismatch");
  for (size_t I = 0; I != SrcParams.size(); ++I) {
    assert(SrcParams[I].Name == DstParams[I].Name &&
           "builder architecture mismatch");
    *DstParams[I].Value = *SrcParams[I].Value;
  }
  const auto SrcBufs = Src.buffers();
  const auto DstBufs = Fresh->buffers();
  assert(SrcBufs.size() == DstBufs.size() && "builder buffer mismatch");
  for (size_t I = 0; I != SrcBufs.size(); ++I) {
    assert(SrcBufs[I].first == DstBufs[I].first && "builder buffer mismatch");
    *DstBufs[I].second = *SrcBufs[I].second;
  }

  auto Out =
      std::make_unique<NNClassifier>(std::move(Fresh), Classes, ModelName);
  Out->setModelBuilder(Builder);
  return Out;
}

DeltaBatch NNClassifier::diffAgainstBase(std::span<const Image> Imgs) const {
  DeltaBatch D;
  D.Items.resize(Imgs.size());
  for (size_t I = 0; I != Imgs.size(); ++I) {
    const Image &Img = Imgs[I];
    DirtyRegion &R = D.Items[I];
    if (!Base.empty() && Img.height() == Base.height() &&
        Img.width() == Base.width()) {
      // Exact byte comparison, never a hash: a stale base may cost a
      // full forward but can never change a result.
      const float *A = Img.raw().data(), *B = Base.raw().data();
      R.Full = false;
      for (size_t P = 0, E = Img.numPixels(); P != E && !R.Full; ++P) {
        if (std::memcmp(A + 3 * P, B + 3 * P, 3 * sizeof(float)) == 0)
          continue;
        if (R.Rects.size() == MaxDeltaPixels)
          R.Full = true;
        const size_t Row = P / Img.width(), Col = P % Img.width();
        R.Rects.push_back({Row, Row + 1, Col, Col + 1});
      }
    }
    if (R.Full) {
      R.Rects.clear();
      D.NewBase = I;
    }
  }
  return D;
}

Tensor NNClassifier::probabilities(std::span<const Image> Imgs) {
  const size_t N = Imgs.size();
  const size_t H = Imgs[0].height(), W = Imgs[0].width();
  InputScratch.ensureShape({N, 3, H, W});
  for (size_t I = 0; I != N; ++I) {
    assert(Imgs[I].height() == H && Imgs[I].width() == W &&
           "mixed image shapes in one batch");
    Imgs[I].writeToTensorBatch(InputScratch, I);
  }

  Tensor Logits;
  if (kernels::naive()) {
    Base = Image();
    Logits = Model->forward(InputScratch, /*Train=*/false);
  } else {
    DeltaBatch D = diffAgainstBase(Imgs);
    Logits = Model->forwardDelta(InputScratch, D);
    if (D.NewBase != DeltaBatch::NoBase)
      Base = Imgs[D.NewBase];
  }
  assert(Logits.numel() == N * Classes && "model output size mismatch");
  Tensor Probs = Logits.reshaped({N, Classes});
  softmaxInPlace(Probs);
  return Probs;
}

std::vector<std::vector<float>> NNClassifier::scoresBatch(
    std::span<const Image> Imgs) {
  if (Imgs.empty())
    return {};
  const Tensor Probs = probabilities(Imgs);
  std::vector<std::vector<float>> Out(Imgs.size());
  const float *Src = Probs.data();
  for (size_t I = 0; I != Imgs.size(); ++I)
    Out[I].assign(Src + I * Classes, Src + (I + 1) * Classes);
  return Out;
}

std::vector<float> NNClassifier::scores(const Image &Img) {
  Tensor Probs = probabilities(std::span<const Image>(&Img, 1));
  return std::move(Probs.vec());
}
