//===- tensor/TensorOps.cpp - Structured tensor operations ----------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tensor/TensorOps.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

using namespace oppsla;

void oppsla::matmul(const Tensor &A, const Tensor &B, Tensor &C) {
  assert(A.rank() == 2 && B.rank() == 2 && C.rank() == 2 && "matmul rank");
  const size_t M = A.dim(0), K = A.dim(1), N = B.dim(1);
  assert(B.dim(0) == K && "matmul inner dims");
  assert(C.dim(0) == M && C.dim(1) == N && "matmul output shape");
  const float *AD = A.data();
  const float *BD = B.data();
  float *CD = C.data();
  // ikj loop order keeps the B row hot in cache and vectorizes the inner
  // loop. The explicit std::fma pins each element to the exact chain
  // acc_k = fma(A[i,k], B[k,j], acc_{k-1}), k ascending — the same
  // contract the packed microkernel in Gemm.cpp follows, so the fast and
  // naive kernel paths agree bit for bit (DESIGN.md §12).
  for (size_t I = 0; I != M; ++I) {
    float *CRow = CD + I * N;
    for (size_t J = 0; J != N; ++J)
      CRow[J] = 0.0f;
    for (size_t Kk = 0; Kk != K; ++Kk) {
      const float AV = AD[I * K + Kk];
      const float *BRow = BD + Kk * N;
      for (size_t J = 0; J != N; ++J)
        CRow[J] = std::fma(AV, BRow[J], CRow[J]);
    }
  }
}

void oppsla::matmulTransposedB(const Tensor &A, const Tensor &B, Tensor &C) {
  assert(A.rank() == 2 && B.rank() == 2 && C.rank() == 2 && "matmul rank");
  const size_t M = A.dim(0), K = A.dim(1), N = B.dim(0);
  assert(B.dim(1) == K && "matmulTransposedB inner dims");
  assert(C.dim(0) == M && C.dim(1) == N && "matmulTransposedB output shape");
  const float *AD = A.data();
  const float *BD = B.data();
  float *CD = C.data();
  for (size_t I = 0; I != M; ++I) {
    const float *ARow = AD + I * K;
    for (size_t J = 0; J != N; ++J) {
      const float *BRow = BD + J * K;
      float Acc = 0.0f;
      for (size_t Kk = 0; Kk != K; ++Kk)
        Acc = std::fma(ARow[Kk], BRow[Kk], Acc);
      CD[I * N + J] = Acc;
    }
  }
}

void oppsla::matmulTransposedA(const Tensor &A, const Tensor &B, Tensor &C) {
  assert(A.rank() == 2 && B.rank() == 2 && C.rank() == 2 && "matmul rank");
  const size_t M = A.dim(0), K = A.dim(1), N = B.dim(1);
  assert(B.dim(0) == M && "matmulTransposedA inner dims");
  assert(C.dim(0) == K && C.dim(1) == N && "matmulTransposedA output shape");
  const float *AD = A.data();
  const float *BD = B.data();
  float *CD = C.data();
  C.zero();
  // No skipping of AV == 0.0f rows: the shortcut looked free but changed
  // semantics for non-finite operands (0 * Inf must produce NaN, and the
  // skip silently dropped it), so the sparse-A path could diverge from
  // matmul/the packed GEMM on the same data. Regression-tested with
  // Inf/NaN operands in tests/tensor/TensorOpsTest.cpp.
  for (size_t I = 0; I != M; ++I) {
    const float *ARow = AD + I * K;
    const float *BRow = BD + I * N;
    for (size_t Kk = 0; Kk != K; ++Kk) {
      const float AV = ARow[Kk];
      float *CRow = CD + Kk * N;
      for (size_t J = 0; J != N; ++J)
        CRow[J] = std::fma(AV, BRow[J], CRow[J]);
    }
  }
}

Tensor oppsla::transpose2d(const Tensor &A) {
  assert(A.rank() == 2 && "transpose2d needs rank 2");
  const size_t M = A.dim(0), N = A.dim(1);
  Tensor T({N, M});
  for (size_t I = 0; I != M; ++I)
    for (size_t J = 0; J != N; ++J)
      T.at(J, I) = A.at(I, J);
  return T;
}

void oppsla::im2col(const Tensor &Input, size_t KH, size_t KW, size_t Stride,
                    size_t Pad, Tensor &Cols) {
  assert(Input.rank() == 4 && "im2col needs NCHW input");
  const size_t N = Input.dim(0), C = Input.dim(1);
  const size_t H = Input.dim(2), W = Input.dim(3);
  const size_t OH = convOutSize(H, KH, Stride, Pad);
  const size_t OW = convOutSize(W, KW, Stride, Pad);
  [[maybe_unused]] const size_t Rows = C * KH * KW;
  const size_t ColsN = N * OH * OW;
  assert(Cols.rank() == 2 && Cols.dim(0) == Rows && Cols.dim(1) == ColsN &&
         "im2col output shape");

  // Each padded plane is first copied into a zero-bordered scratch plane,
  // so every (Ki, Kj) row of the matrix is OH plain segments of a window
  // of it, with no bounds tests; unpadded planes are read in place. At
  // the zoo's small maps the per-segment bounds logic used to cost more
  // than the copying.
  const size_t WP = W + 2 * Pad;
  thread_local std::vector<float> Padded;
  if (Pad)
    Padded.assign((H + 2 * Pad) * WP, 0.0f); // borders stay zero
  float *Out = Cols.data();
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      const float *Src = Input.data() + (B * C + Ch) * H * W;
      if (Pad) {
        for (size_t I = 0; I != H; ++I)
          std::memcpy(Padded.data() + (I + Pad) * WP + Pad, Src + I * W,
                      W * sizeof(float));
        Src = Padded.data();
      }
      for (size_t Ki = 0; Ki != KH; ++Ki) {
        for (size_t Kj = 0; Kj != KW; ++Kj) {
          float *Dst = Out + ((Ch * KH + Ki) * KW + Kj) * ColsN + B * OH * OW;
          const float *Window = Src + Ki * WP + Kj;
          if (Stride == 1 && OW == WP) {
            // Full-width rows (a 1-wide unpadded kernel): one block.
            std::memcpy(Dst, Window, OH * OW * sizeof(float));
            continue;
          }
          for (size_t Oi = 0; Oi != OH; ++Oi, Dst += OW) {
            const float *Row = Window + Oi * Stride * WP;
            if (Stride == 1)
              for (size_t Oj = 0; Oj != OW; ++Oj)
                Dst[Oj] = Row[Oj];
            else
              for (size_t Oj = 0; Oj != OW; ++Oj)
                Dst[Oj] = Row[Oj * Stride];
          }
        }
      }
    }
  }
}

void oppsla::col2im(const Tensor &Cols, size_t N, size_t C, size_t H,
                    size_t W, size_t KH, size_t KW, size_t Stride, size_t Pad,
                    Tensor &Output) {
  const size_t OH = convOutSize(H, KH, Stride, Pad);
  const size_t OW = convOutSize(W, KW, Stride, Pad);
  [[maybe_unused]] const size_t Rows = C * KH * KW;
  const size_t ColsN = N * OH * OW;
  assert(Cols.rank() == 2 && Cols.dim(0) == Rows && Cols.dim(1) == ColsN &&
         "col2im input shape");
  assert(Output.rank() == 4 && Output.dim(0) == N && Output.dim(1) == C &&
         Output.dim(2) == H && Output.dim(3) == W && "col2im output shape");

  Output.zero();
  const float *In = Cols.data();
  float *Out = Output.data();
  for (size_t Ch = 0; Ch != C; ++Ch) {
    for (size_t Ki = 0; Ki != KH; ++Ki) {
      for (size_t Kj = 0; Kj != KW; ++Kj) {
        const size_t Row = (Ch * KH + Ki) * KW + Kj;
        const float *InRow = In + Row * ColsN;
        for (size_t B = 0; B != N; ++B) {
          float *OutPlane = Out + (B * C + Ch) * H * W;
          for (size_t Oi = 0; Oi != OH; ++Oi) {
            const long Ii = static_cast<long>(Oi * Stride + Ki) -
                            static_cast<long>(Pad);
            if (Ii < 0 || Ii >= static_cast<long>(H))
              continue;
            const float *InPos = InRow + (B * OH + Oi) * OW;
            float *OutRow = OutPlane + static_cast<size_t>(Ii) * W;
            for (size_t Oj = 0; Oj != OW; ++Oj) {
              const long Jj = static_cast<long>(Oj * Stride + Kj) -
                              static_cast<long>(Pad);
              if (Jj < 0 || Jj >= static_cast<long>(W))
                continue;
              OutRow[static_cast<size_t>(Jj)] += InPos[Oj];
            }
          }
        }
      }
    }
  }
}

void oppsla::softmaxInPlace(Tensor &Logits) {
  assert((Logits.rank() == 1 || Logits.rank() == 2) && "softmax rank");
  const size_t Rows = Logits.rank() == 2 ? Logits.dim(0) : 1;
  const size_t Cols = Logits.rank() == 2 ? Logits.dim(1) : Logits.dim(0);
  float *D = Logits.data();
  for (size_t R = 0; R != Rows; ++R) {
    float *Row = D + R * Cols;
    float Max = Row[0];
    for (size_t J = 1; J != Cols; ++J)
      Max = std::max(Max, Row[J]);
    float Sum = 0.0f;
    for (size_t J = 0; J != Cols; ++J) {
      Row[J] = std::exp(Row[J] - Max);
      Sum += Row[J];
    }
    const float Inv = 1.0f / Sum;
    for (size_t J = 0; J != Cols; ++J)
      Row[J] *= Inv;
  }
}

Tensor oppsla::logSoftmax(const Tensor &Logits) {
  assert(Logits.rank() == 1 && "logSoftmax expects rank 1");
  Tensor Out = Logits;
  float Max = Out.maxElement();
  float Sum = 0.0f;
  for (float V : Out.vec())
    Sum += std::exp(V - Max);
  const float LogSum = Max + std::log(Sum);
  for (float &V : Out.vec())
    V -= LogSum;
  return Out;
}
