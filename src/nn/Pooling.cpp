//===- nn/Pooling.cpp - Spatial pooling layers ------------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Pooling.h"

#include <limits>

using namespace oppsla;

namespace {

/// Window x Window pooling at \p Stride over every plane of \p In: each
/// output starts at \p Init and folds in its window's values with \p Fold,
/// rows of the window outer and columns inner.
template <typename FoldFn>
[[gnu::always_inline]] inline Tensor
poolWindows(const Tensor &In, size_t Window, size_t Stride, float Init,
            FoldFn Fold) {
  assert(In.rank() == 4 && "pooling expects NCHW");
  const size_t N = In.dim(0), C = In.dim(1), H = In.dim(2), W = In.dim(3);
  assert(H >= Window && W >= Window && "pool window larger than input");
  const size_t OH = (H - Window) / Stride + 1;
  const size_t OW = (W - Window) / Stride + 1;
  Tensor Out({N, C, OH, OW});
  float *Dst = Out.data();
  for (size_t P = 0; P != N * C; ++P) {
    const float *Plane = In.data() + P * H * W;
    for (size_t Oi = 0; Oi != OH; ++Oi)
      for (size_t Oj = 0; Oj != OW; ++Oj) {
        float Acc = Init;
        for (size_t Ki = 0; Ki != Window; ++Ki) {
          const float *Row = Plane + (Oi * Stride + Ki) * W + Oj * Stride;
          for (size_t Kj = 0; Kj != Window; ++Kj)
            Acc = Fold(Acc, Row[Kj]);
        }
        *Dst++ = Acc;
      }
  }
  return Out;
}

/// poolWindows with the zoo's 2x2, stride-2 geometry as constants, so
/// each window unrolls into straight-line code; with runtime bounds the
/// tiny window loops serialize on their branches and dominated the layer.
template <typename FoldFn>
Tensor pool(const Tensor &In, size_t Window, size_t Stride, float Init,
            FoldFn Fold) {
  if (Window == 2 && Stride == 2)
    return poolWindows(In, 2, 2, Init, Fold);
  return poolWindows(In, Window, Stride, Init, Fold);
}

} // namespace

Tensor MaxPool2d::forward(const Tensor &In, bool Train) {
  if (!Train)
    return pool(In, Window, Stride, -std::numeric_limits<float>::infinity(),
                [](float Best, float V) { return V > Best ? V : Best; });

  // Training also records each window's argmax for backward.
  assert(In.rank() == 4 && "maxpool expects NCHW");
  const size_t N = In.dim(0), C = In.dim(1), H = In.dim(2), W = In.dim(3);
  assert(H >= Window && W >= Window && "pool window larger than input");
  const size_t OH = (H - Window) / Stride + 1;
  const size_t OW = (W - Window) / Stride + 1;
  Tensor Out({N, C, OH, OW});
  CachedArgmax.assign(Out.numel(), 0);
  CachedInShape = In.shape();

  size_t OutIdx = 0;
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      const float *Plane = In.data() + (B * C + Ch) * H * W;
      const size_t PlaneBase = (B * C + Ch) * H * W;
      for (size_t Oi = 0; Oi != OH; ++Oi) {
        for (size_t Oj = 0; Oj != OW; ++Oj, ++OutIdx) {
          float Best = -std::numeric_limits<float>::infinity();
          size_t BestIdx = 0;
          for (size_t Ki = 0; Ki != Window; ++Ki) {
            const size_t Ii = Oi * Stride + Ki;
            for (size_t Kj = 0; Kj != Window; ++Kj) {
              const size_t Jj = Oj * Stride + Kj;
              const float V = Plane[Ii * W + Jj];
              if (V > Best) {
                Best = V;
                BestIdx = PlaneBase + Ii * W + Jj;
              }
            }
          }
          Out[OutIdx] = Best;
          CachedArgmax[OutIdx] = BestIdx;
        }
      }
    }
  }
  return Out;
}

Tensor MaxPool2d::forwardDelta(const Tensor &In, DeltaBatch &D) {
  Tensor Out = forward(In, /*Train=*/false);
  D.mapWindow(Window, Stride, /*Pad=*/0, Out.dim(2), Out.dim(3));
  return Out;
}

Tensor MaxPool2d::backward(const Tensor &GradOut) {
  assert(!CachedArgmax.empty() && "backward without cached forward");
  assert(GradOut.numel() == CachedArgmax.size() && "maxpool grad shape");
  Tensor GradIn(CachedInShape);
  const float *Dy = GradOut.data();
  float *Dx = GradIn.data();
  for (size_t I = 0, E = GradOut.numel(); I != E; ++I)
    Dx[CachedArgmax[I]] += Dy[I];
  return GradIn;
}

Tensor AvgPool2d::forward(const Tensor &In, bool Train) {
  if (Train)
    CachedInShape = In.shape();
  Tensor Out = pool(In, Window, Stride, 0.0f,
                    [](float Acc, float V) { return Acc + V; });
  const float Inv = 1.0f / static_cast<float>(Window * Window);
  for (float &V : Out.vec())
    V *= Inv;
  return Out;
}

Tensor AvgPool2d::forwardDelta(const Tensor &In, DeltaBatch &D) {
  Tensor Out = forward(In, /*Train=*/false);
  D.mapWindow(Window, Stride, /*Pad=*/0, Out.dim(2), Out.dim(3));
  return Out;
}

Tensor AvgPool2d::backward(const Tensor &GradOut) {
  assert(CachedInShape.rank() == 4 && "backward without cached forward");
  const size_t N = CachedInShape[0], C = CachedInShape[1];
  const size_t H = CachedInShape[2], W = CachedInShape[3];
  const size_t OH = (H - Window) / Stride + 1;
  const size_t OW = (W - Window) / Stride + 1;
  assert(GradOut.rank() == 4 && GradOut.dim(2) == OH &&
         GradOut.dim(3) == OW && "avgpool grad shape");
  Tensor GradIn(CachedInShape);
  const float Inv = 1.0f / static_cast<float>(Window * Window);

  size_t OutIdx = 0;
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      float *Plane = GradIn.data() + (B * C + Ch) * H * W;
      for (size_t Oi = 0; Oi != OH; ++Oi) {
        for (size_t Oj = 0; Oj != OW; ++Oj, ++OutIdx) {
          const float G = GradOut[OutIdx] * Inv;
          for (size_t Ki = 0; Ki != Window; ++Ki)
            for (size_t Kj = 0; Kj != Window; ++Kj)
              Plane[(Oi * Stride + Ki) * W + (Oj * Stride + Kj)] += G;
        }
      }
    }
  }
  return GradIn;
}

Tensor GlobalAvgPool::forward(const Tensor &In, bool Train) {
  assert(In.rank() == 4 && "global avg pool expects NCHW");
  const size_t N = In.dim(0), C = In.dim(1);
  const size_t Plane = In.dim(2) * In.dim(3);
  if (Train)
    CachedInShape = In.shape();
  Tensor Out({N, C});
  const float Inv = 1.0f / static_cast<float>(Plane);
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      const float *Src = In.data() + (B * C + Ch) * Plane;
      float Acc = 0.0f;
      for (size_t I = 0; I != Plane; ++I)
        Acc += Src[I];
      Out.at(B, Ch) = Acc * Inv;
    }
  }
  return Out;
}

Tensor GlobalAvgPool::backward(const Tensor &GradOut) {
  assert(CachedInShape.rank() == 4 && "backward without cached forward");
  const size_t N = CachedInShape[0], C = CachedInShape[1];
  const size_t Plane = CachedInShape[2] * CachedInShape[3];
  assert(GradOut.rank() == 2 && GradOut.dim(0) == N && GradOut.dim(1) == C &&
         "global avg pool grad shape");
  Tensor GradIn(CachedInShape);
  const float Inv = 1.0f / static_cast<float>(Plane);
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      const float G = GradOut.at(B, Ch) * Inv;
      float *Dst = GradIn.data() + (B * C + Ch) * Plane;
      for (size_t I = 0; I != Plane; ++I)
        Dst[I] = G;
    }
  }
  return GradIn;
}
