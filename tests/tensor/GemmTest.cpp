//===- tests/tensor/GemmTest.cpp - Packed SGEMM unit tests --------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The packed, register-blocked GEMM's contract is BIT-identity with the
// scalar reference loops in TensorOps.cpp: both compute every output
// element as the chain acc_k = fma(A[i,k], B[k,j], acc_{k-1}) with k
// ascending, so EXPECT_EQ (not NEAR) is the right comparison everywhere
// below, at any shape, epilogue, and thread count (DESIGN.md §12).
//
//===----------------------------------------------------------------------===//

#include "tensor/Gemm.h"

#include "support/Rng.h"
#include "tensor/TensorOps.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace oppsla;

namespace {

Tensor randomTensor(Shape S, uint64_t Seed) {
  Rng R(Seed);
  return Tensor::randn(std::move(S), R);
}

/// Packed GEMM wrapper: C = A * B with epilogue \p Ep.
Tensor fastMatmul(const Tensor &A, const Tensor &B, const GemmEpilogue &Ep) {
  const size_t M = A.dim(0), K = A.dim(1), N = B.dim(1);
  std::vector<float> Pack(gemmPackedSize(M, K));
  gemmPackA(A.data(), M, K, Pack.data());
  Tensor C({M, N});
  gemmPacked(Pack.data(), B.data(), C.data(), M, K, N, Ep);
  return C;
}

void expectBitIdentical(const Tensor &A, const Tensor &B) {
  ASSERT_EQ(A.shape(), B.shape());
  for (size_t I = 0; I != A.numel(); ++I)
    ASSERT_EQ(A[I], B[I]) << "at flat index " << I;
}

} // namespace

TEST(GemmPack, PanelLayoutAndZeroTail) {
  // M = 7 rows pack into two MR=6 panels; panel 1 holds row 6 plus five
  // zero rows. Within a panel the layout is k-major: Pack[k*MR + r].
  const size_t M = 7, K = 3;
  Tensor A({M, K});
  for (size_t I = 0; I != A.numel(); ++I)
    A[I] = static_cast<float>(I + 1);
  std::vector<float> Pack(gemmPackedSize(M, K), -1.0f);
  ASSERT_EQ(Pack.size(), 2 * K * kernels::MR);
  gemmPackA(A.data(), M, K, Pack.data());

  for (size_t R = 0; R != kernels::MR; ++R)
    for (size_t Kk = 0; Kk != K; ++Kk)
      EXPECT_EQ(Pack[Kk * kernels::MR + R], A.at(R, Kk));
  const float *Panel1 = Pack.data() + K * kernels::MR;
  for (size_t R = 0; R != kernels::MR; ++R)
    for (size_t Kk = 0; Kk != K; ++Kk)
      EXPECT_EQ(Panel1[Kk * kernels::MR + R], R == 0 ? A.at(6, Kk) : 0.0f);
}

/// Shape sweep crossing every blocking edge: M not a multiple of MR=6,
/// N below/straddling NR=16 and NC=144, K = 1 and K large.
class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeSweep, BitIdenticalToReferenceMatmul) {
  const auto [M, K, N] = GetParam();
  const Tensor A = randomTensor({static_cast<size_t>(M),
                                 static_cast<size_t>(K)}, 7 + M);
  const Tensor B = randomTensor({static_cast<size_t>(K),
                                 static_cast<size_t>(N)}, 13 + N);
  Tensor Ref({static_cast<size_t>(M), static_cast<size_t>(N)});
  matmul(A, B, Ref);
  expectBitIdentical(fastMatmul(A, B, GemmEpilogue{}), Ref);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1),     // degenerate
                      std::make_tuple(6, 27, 16),   // exact blocks
                      std::make_tuple(7, 27, 16),   // M tail of 1
                      std::make_tuple(5, 5, 5),     // all tails
                      std::make_tuple(16, 27, 7),   // N below NR
                      std::make_tuple(13, 64, 33),  // N tail of 1
                      std::make_tuple(64, 576, 64), // deepest zoo conv
                      std::make_tuple(10, 100, 150) // N straddles NC
                      ));

TEST(GemmTail, EveryTailWidthBitIdenticalToReferenceMatmul) {
  // Column tails are padded to a full NR tile; each stored lane must keep
  // its own fma chain. Cover every width below NR, alone and after full
  // tiles, with M tails and K from 1 to a Linear-sized reduction.
  for (size_t M : {1u, 6u, 10u})
    for (size_t K : {1u, 27u, 512u})
      for (size_t Cols = 1; Cols != kernels::NR; ++Cols)
        for (size_t N : {Cols, 2 * kernels::NR + Cols}) {
          const Tensor A = randomTensor({M, K}, 40 + M + K);
          const Tensor B = randomTensor({K, N}, 50 + N);
          Tensor Ref({M, N});
          matmul(A, B, Ref);
          SCOPED_TRACE("M=" + std::to_string(M) + " K=" + std::to_string(K) +
                       " N=" + std::to_string(N));
          expectBitIdentical(fastMatmul(A, B, GemmEpilogue{}), Ref);
        }
}

TEST(GemmEpilogueTest, BiasScaleShiftReluMatchReferenceOps) {
  const size_t M = 9, K = 31, N = 21;
  const Tensor A = randomTensor({M, K}, 3);
  const Tensor B = randomTensor({K, N}, 4);
  const Tensor Bias = randomTensor({M}, 5);
  const Tensor Scale = randomTensor({M}, 6);
  const Tensor Shift = randomTensor({M}, 7);
  Tensor Ref({M, N});
  matmul(A, B, Ref);

  GemmEpilogue Ep;
  Ep.Bias = Bias.data();
  Ep.Scale = Scale.data();
  Ep.Shift = Shift.data();
  Ep.Relu = true;
  const Tensor Fast = fastMatmul(A, B, Ep);

  // The epilogue mirrors the unfused layers op for op: bias add, then
  // fma(v, scale, shift), then the ReLU ternary.
  for (size_t I = 0; I != M; ++I)
    for (size_t J = 0; J != N; ++J) {
      const float V =
          std::fma(Ref.at(I, J) + Bias[I], Scale[I], Shift[I]);
      ASSERT_EQ(Fast.at(I, J), V > 0.0f ? V : 0.0f)
          << "at (" << I << ", " << J << ")";
    }
}

TEST(GemmConvOut, ScattersColumnsIntoNCHW) {
  // Flat column (b*Plane + p) of the product must land at Out[b][m][p],
  // including when tiles straddle batch boundaries (Plane = 5 < NR).
  const size_t M = 8, K = 12, NB = 7, Plane = 5;
  const Tensor A = randomTensor({M, K}, 21);
  const Tensor B = randomTensor({K, NB * Plane}, 22);
  const Tensor RowMajor = fastMatmul(A, B, GemmEpilogue{});

  std::vector<float> Pack(gemmPackedSize(M, K));
  gemmPackA(A.data(), M, K, Pack.data());
  Tensor Out({NB, M, Plane, 1});
  gemmPackedConvOut(Pack.data(), B.data(), Out.data(), M, K, NB, Plane,
                    GemmEpilogue{});

  for (size_t Bn = 0; Bn != NB; ++Bn)
    for (size_t I = 0; I != M; ++I)
      for (size_t P = 0; P != Plane; ++P)
        ASSERT_EQ(Out.at(Bn, I, P, 0), RowMajor.at(I, Bn * Plane + P))
            << "batch " << Bn << " row " << I << " pixel " << P;
}

TEST(GemmThreading, BitIdenticalAtAnyColumnThreadCount) {
  const size_t M = 17, K = 48, N = 800; // several NC blocks
  const Tensor A = randomTensor({M, K}, 31);
  const Tensor B = randomTensor({K, N}, 32);
  const Tensor Serial = fastMatmul(A, B, GemmEpilogue{});
  for (size_t Threads : {2, 3, 7}) {
    kernels::ScopedColumnThreads Scope(Threads);
    expectBitIdentical(fastMatmul(A, B, GemmEpilogue{}), Serial);
  }
}

TEST(GemmThreading, ScopedOverrideRestores) {
  const size_t Before = kernels::columnThreads();
  {
    kernels::ScopedColumnThreads Outer(4);
    EXPECT_EQ(kernels::columnThreads(), 4u);
    {
      kernels::ScopedColumnThreads Inner(2);
      EXPECT_EQ(kernels::columnThreads(), 2u);
    }
    EXPECT_EQ(kernels::columnThreads(), 4u);
  }
  EXPECT_EQ(kernels::columnThreads(), Before);
}

TEST(GemmKernels, NaiveToggle) {
  EXPECT_FALSE(kernels::naive());
  kernels::setNaive(true);
  EXPECT_TRUE(kernels::naive());
  kernels::setNaive(false);
  EXPECT_FALSE(kernels::naive());
}
