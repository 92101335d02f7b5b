//===- tensor/Gemm.cpp - Packed, register-blocked SGEMM -------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tensor/Gemm.h"

#include "support/ArgParse.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

using namespace oppsla;
using namespace oppsla::kernels;

//===----------------------------------------------------------------------===//
// Kernel configuration state
//===----------------------------------------------------------------------===//

namespace {

std::atomic<bool> NaiveKernels{false};
std::atomic<size_t> GlobalColumnThreads{1};

// 0 = no override; ScopedColumnThreads installs a per-thread value so the
// engine can re-budget kernels for the forward it is about to run without
// racing other workers.
thread_local size_t TLColumnThreads = 0;

// One process-wide pool for GEMM column fan-out, sized to the hardware and
// created on first threaded call. Shared across layers and forwards; tasks
// are pure column-range computations so FIFO order never matters.
ThreadPool &columnPool() {
  static std::once_flag Once;
  static std::unique_ptr<ThreadPool> Pool;
  std::call_once(Once, [] {
    Pool = std::make_unique<ThreadPool>(ThreadPool::hardwareThreads());
  });
  return *Pool;
}

} // namespace

bool kernels::naive() { return NaiveKernels.load(std::memory_order_relaxed); }

void kernels::setNaive(bool Enabled) {
  NaiveKernels.store(Enabled, std::memory_order_relaxed);
}

size_t kernels::columnThreads() {
  if (TLColumnThreads != 0)
    return TLColumnThreads;
  return GlobalColumnThreads.load(std::memory_order_relaxed);
}

void kernels::setColumnThreads(size_t Threads) {
  GlobalColumnThreads.store(std::max<size_t>(1, Threads),
                            std::memory_order_relaxed);
}

ScopedColumnThreads::ScopedColumnThreads(size_t Threads)
    : Saved(TLColumnThreads) {
  TLColumnThreads = std::max<size_t>(1, Threads);
}

ScopedColumnThreads::~ScopedColumnThreads() { TLColumnThreads = Saved; }

void kernels::configureFromArgs(const ArgParse &Args) {
  setNaive(Args.getFlag("naive-kernels"));
}

//===----------------------------------------------------------------------===//
// A-operand packing
//===----------------------------------------------------------------------===//

size_t oppsla::gemmPackedSize(size_t M, size_t K) {
  const size_t Panels = (M + MR - 1) / MR;
  return Panels * K * MR;
}

void oppsla::gemmPackA(const float *A, size_t M, size_t K, float *Pack) {
  const size_t Panels = (M + MR - 1) / MR;
  for (size_t P = 0; P != Panels; ++P) {
    float *Panel = Pack + P * K * MR;
    const size_t Rows = std::min(MR, M - P * MR);
    for (size_t R = 0; R != Rows; ++R) {
      const float *ARow = A + (P * MR + R) * K;
      for (size_t Kk = 0; Kk != K; ++Kk)
        Panel[Kk * MR + R] = ARow[Kk];
    }
    // Zero-fill the tail rows so the microkernel can always run the full
    // MR accumulators; the padded results are simply never stored.
    for (size_t R = Rows; R != MR; ++R)
      for (size_t Kk = 0; Kk != K; ++Kk)
        Panel[Kk * MR + R] = 0.0f;
  }
}

//===----------------------------------------------------------------------===//
// Microkernel
//===----------------------------------------------------------------------===//

namespace {

// The vectorized tile uses GNU vector extensions (no x86 intrinsics): two
// 8-lane vectors per accumulator row, with `a * b + acc` relying on FP
// contraction (-ffp-contract=fast, forced in src/tensor/CMakeLists.txt)
// to emit one fused multiply-add per lane. A contracted a*b+acc rounds
// once, exactly like std::fma, so the chain stays bit-identical to the
// scalar reference loops — GemmTest and the cli_eval_kernels_identical
// ctest enforce this. Only taken on FMA-capable GNU targets; anything
// else falls back to the scalar std::fma loop below, which keeps the
// contract trivially (and slowly).
#if defined(__GNUC__) && defined(__FMA__)
#define OPPSLA_GEMM_VECTOR_KERNEL 1
typedef float V8 __attribute__((vector_size(32)));
#if defined(__AVX512F__)
// One 16-lane vector covers the whole NR tile row: half the FMA issue
// count of the two-V8 form, same contracted single-rounding per lane.
#define OPPSLA_GEMM_V16 1
typedef float V16 __attribute__((vector_size(64)));
#endif
#endif

/// Full MR x NR tile: each accumulator is the exact fma chain
/// acc_k = fma(a, b, acc_{k-1}) with k ascending — the determinism
/// contract shared with the scalar reference loops.
void microKernelFull(const float *__restrict Panel, const float *__restrict B,
                     size_t Ldb, size_t K, float Acc[MR][NR]) {
#if defined(OPPSLA_GEMM_V16)
  V16 Acc16[MR] = {};
  for (size_t Kk = 0; Kk != K; ++Kk) {
    const float *BRow = B + Kk * Ldb;
    V16 BV;
    std::memcpy(&BV, BRow, sizeof(V16));
    const float *APack = Panel + Kk * MR;
    for (size_t R = 0; R != MR; ++R) {
      const float A = APack[R];
      const V16 AV = {A, A, A, A, A, A, A, A, A, A, A, A, A, A, A, A};
      Acc16[R] = AV * BV + Acc16[R]; // contracts to one fused fma per lane
    }
  }
  for (size_t R = 0; R != MR; ++R)
    std::memcpy(&Acc[R][0], &Acc16[R], sizeof(V16));
#elif defined(OPPSLA_GEMM_VECTOR_KERNEL)
  V8 Lo[MR] = {}, Hi[MR] = {};
  for (size_t Kk = 0; Kk != K; ++Kk) {
    const float *BRow = B + Kk * Ldb;
    V8 B0, B1;
    std::memcpy(&B0, BRow, sizeof(V8));
    std::memcpy(&B1, BRow + 8, sizeof(V8));
    const float *APack = Panel + Kk * MR;
    for (size_t R = 0; R != MR; ++R) {
      const float A = APack[R];
      const V8 AV = {A, A, A, A, A, A, A, A};
      Lo[R] = AV * B0 + Lo[R]; // contracts to one fused fma per lane
      Hi[R] = AV * B1 + Hi[R];
    }
  }
  for (size_t R = 0; R != MR; ++R) {
    std::memcpy(&Acc[R][0], &Lo[R], sizeof(V8));
    std::memcpy(&Acc[R][8], &Hi[R], sizeof(V8));
  }
#else
  for (size_t R = 0; R != MR; ++R)
    for (size_t J = 0; J != NR; ++J)
      Acc[R][J] = 0.0f;
  for (size_t Kk = 0; Kk != K; ++Kk) {
    const float *BRow = B + Kk * Ldb;
    const float *APack = Panel + Kk * MR;
    for (size_t R = 0; R != MR; ++R) {
      const float AV = APack[R];
      for (size_t J = 0; J != NR; ++J)
        Acc[R][J] = std::fma(AV, BRow[J], Acc[R][J]);
    }
  }
#endif
}

#if defined(OPPSLA_GEMM_V16)
/// Two panels' tiles at once: the same per-lane fma chains as two
/// microKernelFull calls, with twelve independent accumulators in flight
/// instead of six, so a narrow product is no longer bound by the fma
/// latency of one panel's chains.
void microKernelPair(const float *__restrict Panel0,
                     const float *__restrict Panel1,
                     const float *__restrict B, size_t Ldb, size_t K,
                     float Acc0[MR][NR], float Acc1[MR][NR]) {
  V16 A0[MR] = {}, A1[MR] = {};
  for (size_t Kk = 0; Kk != K; ++Kk) {
    V16 BV;
    std::memcpy(&BV, B + Kk * Ldb, sizeof(V16));
    for (size_t R = 0; R != MR; ++R) {
      const float A = Panel0[Kk * MR + R];
      const V16 AV = {A, A, A, A, A, A, A, A, A, A, A, A, A, A, A, A};
      A0[R] = AV * BV + A0[R]; // contracts to one fused fma per lane
    }
    for (size_t R = 0; R != MR; ++R) {
      const float A = Panel1[Kk * MR + R];
      const V16 AV = {A, A, A, A, A, A, A, A, A, A, A, A, A, A, A, A};
      A1[R] = AV * BV + A1[R];
    }
  }
  for (size_t R = 0; R != MR; ++R) {
    std::memcpy(&Acc0[R][0], &A0[R], sizeof(V16));
    std::memcpy(&Acc1[R][0], &A1[R], sizeof(V16));
  }
}
#endif

/// Applies the epilogue to one accumulator row and stores it contiguously.
/// Mirrors the reference path op-for-op: conv bias add (0.0f when the
/// layer has none), BatchNorm2d's `fma(v, Scale, Shift)`, ReLU's ternary.
inline void storeRow(const float *AccRow, float *Dst, size_t Cols, size_t I,
                     const GemmEpilogue &Ep) {
  const float Bias = Ep.Bias ? Ep.Bias[I] : 0.0f;
  if (Ep.Scale) {
    const float Scale = Ep.Scale[I];
    const float Shift = Ep.Shift[I];
    if (Ep.Relu) {
      for (size_t J = 0; J != Cols; ++J) {
        float V = std::fma(AccRow[J] + Bias, Scale, Shift);
        Dst[J] = V > 0.0f ? V : 0.0f;
      }
    } else {
      for (size_t J = 0; J != Cols; ++J)
        Dst[J] = std::fma(AccRow[J] + Bias, Scale, Shift);
    }
  } else if (Ep.Relu) {
    for (size_t J = 0; J != Cols; ++J) {
      const float V = AccRow[J] + Bias;
      Dst[J] = V > 0.0f ? V : 0.0f;
    }
  } else {
    for (size_t J = 0; J != Cols; ++J)
      Dst[J] = AccRow[J] + Bias;
  }
}

/// Stores the live part of a tile into the NCHW output. The tile covers
/// output rows [I0, I0+Rows) and flat columns [J0, J0+Cols); flat column
/// (B * Plane + P) is pixel P of batch item B, so the tile is split at
/// batch boundaries into contiguous segments.
void storeTile(const float Acc[MR][NR], float *Out, size_t M, size_t Plane,
               size_t I0, size_t Rows, size_t J0, size_t Cols,
               const GemmEpilogue &Ep) {
  size_t Done = 0;
  while (Done != Cols) {
    const size_t Flat = J0 + Done;
    const size_t Batch = Flat / Plane;
    const size_t Pixel = Flat % Plane;
    const size_t Seg = std::min(Cols - Done, Plane - Pixel);
    float *Base = Out + Batch * M * Plane + Pixel;
    for (size_t R = 0; R != Rows; ++R)
      storeRow(&Acc[R][Done], Base + (I0 + R) * Plane, Seg, I0 + R, Ep);
    Done += Seg;
  }
}

/// Copies columns [J, J+Cols) of B (Cols < NR) into a K x NR block whose
/// lanes past Cols are zero, so the tail of a column block runs the full
/// microkernel too. Each stored lane still runs its own k-ascending fma
/// chain over the same operands, so results match the naive path bit for
/// bit; the padded lanes are computed and dropped.
const float *padTail(const float *B, size_t Ldb, size_t K, size_t Cols) {
  thread_local std::vector<float> Tail;
  Tail.resize(K * NR);
  // Plain loops, not memcpy/memset: the rows are a few floats, where the
  // call overhead exceeds the copy.
  for (size_t Kk = 0; Kk != K; ++Kk) {
    float *Row = Tail.data() + Kk * NR;
    const float *Src = B + Kk * Ldb;
    for (size_t J = 0; J != NR; ++J)
      Row[J] = J < Cols ? Src[J] : 0.0f;
  }
  return Tail.data();
}

/// Computes output columns [J0, J1) of the whole product: for each K x NC
/// B-block, sweep every packed A panel so the block stays cache-hot.
void runColumns(const float *Pack, const float *B, float *Out, size_t M,
                size_t K, size_t N, size_t Plane, size_t J0, size_t J1,
                const GemmEpilogue &Ep) {
  const size_t Panels = (M + MR - 1) / MR;
  float Acc[MR][NR];
  for (size_t Jc = J0; Jc < J1; Jc += NC) {
    const size_t JcEnd = std::min(Jc + NC, J1);
    const size_t TailJ = JcEnd - (JcEnd - Jc) % NR;
    const size_t TailCols = JcEnd - TailJ;
    const float *Tail =
        TailCols ? padTail(B + TailJ, N, K, TailCols) : nullptr;
    size_t P = 0;
#if defined(OPPSLA_GEMM_V16)
    // Panels in pairs while two are left, then the usual one at a time.
    float Acc2[MR][NR];
    for (; P + 1 < Panels; P += 2) {
      const float *Panel = Pack + P * K * MR;
      const size_t I0 = P * MR;
      const size_t Rows1 = std::min(MR, M - I0 - MR);
      for (size_t J = Jc; J < JcEnd; J += NR) {
        const bool IsTail = J == TailJ;
        microKernelPair(Panel, Panel + K * MR, IsTail ? Tail : B + J,
                        IsTail ? NR : N, K, Acc, Acc2);
        const size_t Cols = IsTail ? TailCols : NR;
        storeTile(Acc, Out, M, Plane, I0, MR, J, Cols, Ep);
        storeTile(Acc2, Out, M, Plane, I0 + MR, Rows1, J, Cols, Ep);
      }
    }
#endif
    for (; P != Panels; ++P) {
      const float *Panel = Pack + P * K * MR;
      const size_t I0 = P * MR;
      const size_t Rows = std::min(MR, M - I0);
      for (size_t J = Jc; J < JcEnd; J += NR) {
        const bool IsTail = J == TailJ;
        microKernelFull(Panel, IsTail ? Tail : B + J, IsTail ? NR : N, K,
                        Acc);
        storeTile(Acc, Out, M, Plane, I0, Rows, J, IsTail ? TailCols : NR,
                  Ep);
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

void oppsla::gemmPackedConvOut(const float *Pack, const float *B, float *Out,
                               size_t M, size_t K, size_t NB, size_t Plane,
                               const GemmEpilogue &Ep) {
  assert((!Ep.Scale || Ep.Shift) && "Scale requires Shift");
  const size_t N = NB * Plane;
  if (N == 0 || M == 0)
    return;
  const size_t Threads = std::min(kernels::columnThreads(), (N + NC - 1) / NC);
  if (Threads <= 1) {
    runColumns(Pack, B, Out, M, K, N, Plane, 0, N, Ep);
    return;
  }
  // Partition columns into Threads NC-aligned ranges. Each range writes a
  // disjoint column set and every element's fma chain is independent of
  // the partition, so results are identical at any thread count.
  const size_t Blocks = (N + NC - 1) / NC;
  const size_t PerRange = (Blocks + Threads - 1) / Threads;
  std::vector<std::pair<size_t, size_t>> Ranges;
  for (size_t T = 0; T != Threads; ++T) {
    const size_t B0 = T * PerRange * NC;
    const size_t B1 = std::min(N, (T + 1) * PerRange * NC);
    if (B0 >= B1)
      break;
    Ranges.emplace_back(B0, B1);
  }
  columnPool().forEach(Ranges.size(), [&](size_t R) {
    runColumns(Pack, B, Out, M, K, N, Plane, Ranges[R].first, Ranges[R].second,
               Ep);
  });
}

void oppsla::gemmPacked(const float *Pack, const float *B, float *C, size_t M,
                        size_t K, size_t N, const GemmEpilogue &Ep) {
  // A row-major M x N output is the NB == 1 case of the NCHW store.
  gemmPackedConvOut(Pack, B, C, M, K, /*NB=*/1, /*Plane=*/N, Ep);
}
